"""Growth regimes of the circle integrals I_c(z).

I_c(z) integrates |1 - z e^{-i theta}|^{-(1+c)} over the circle.  As |z|
approaches 1 the integral grows like (1 - |z|^2)^{-c} for c > 0, like
log(1/(1 - |z|^2)) at c = 0, and stays bounded for c < 0.  At c = 1 the
closed form 2 pi / (1 - |z|^2), with 1 - |z|^2 taken as (1 - r)(1 + r),
pins the quadrature to roundoff up to r = 0.99999; the other rows print
the measured ratio against the comparison growth rate for a ladder of
radii.  Each value takes about a millisecond: the rule integrates in a
Moebius variable on the order of 1/sqrt(1 - r) nodes.
"""

import numpy as np

from hardylab.witnesses import IcQuery, eval_ic, ic_comparison


def main():
    ladder = (0.9, 0.99, 0.999, 0.9999)

    print("c = 1 against the closed form 2 pi / (1 - r^2):")
    for r in ladder + (0.99999,):
        got = eval_ic(IcQuery(1.0, complex(r)))
        exact = 2 * np.pi / ((1 - r) * (1 + r))
        print(f"  r = {r:<7} value {got.value:>14.6f}  "
              f"rel err {abs(got.value - exact) / exact:.2e}  "
              f"levels {got.report.levels}")

    for c, label in ((0.5, "(1 - r^2)^{-1/2}"),
                     (0.0, "log(1/(1 - r^2))"),
                     (-0.5, "constant")):
        print(f"\nc = {c}: ratio against {label}:")
        for r in ladder:
            got = eval_ic(IcQuery(c, complex(r)))
            comp = ic_comparison(c, complex(r))
            print(f"  r = {r:<7} I_c {got.value:>12.6f}  "
                  f"ratio {got.value / comp:>9.6f}")
    print("\nthe c = 0.5 and c = -0.5 ratios share the same limiting "
          "constant, about 7.4163; one regime grows, the other saturates")


if __name__ == "__main__":
    main()
