"""Hardy and Bergman norm estimators checked against closed forms.

The extremal family f_a = (1 - a^2)/(1 - a z)^2 integrates exactly on
circles: the mean of |f_a| at radius r is (1 - a^2)/(1 - a^2 r^2), so its
Hardy norm is exactly 1 for every a.  Its Bergman norm has the closed
form pi (1 - a^2) log(1/(1 - a^2)) / a^2.  Monomials give simple exact
values in both spaces.  The script prints estimator output next to each
closed form, then verifies the embedding constant pi.
"""

import numpy as np

from hardylab.norms import bergman_norm_disc, hardy_norm_disc
from hardylab.registry import default_registry
from hardylab.witnesses import fa_series


def main():
    print("Hardy norm of f_a (exact value 1):")
    for a in (0.0, 0.5, 0.9, 0.99):
        est = hardy_norm_disc(fa_series(a), 1.0, 1e-6, spike=a)
        # the spike tag declares f_a holomorphic past the unit circle, so
        # its Hardy norm is the mean of |f_a| on the circle itself
        print(f"  a = {a:<5} estimate {est.value:.15f}  "
              f"converged {est.converged}")

    # near the rim each radial node gets the angular count of the spike
    # seen from its own radius, so a = 0.999 stays cheap
    print("\nBergman norm of f_a against the closed form:")
    for a in (0.5, 0.9, 0.99, 0.999):
        est = bergman_norm_disc(fa_series(a), 1.0, 1e-10, spike=a)
        exact = np.pi * (1 - a * a) * np.log(1 / (1 - a * a)) / (a * a)
        print(f"  a = {a:<5} estimate {est.value:.12f}  exact {exact:.12f}  "
              f"rel. error {abs(est.value - exact) / exact:.1e}")

    print("\nmonomial z^k: hardy norm 1, bergman norm 2 pi / (k + 2):")
    reg = default_registry()
    for k in (1, 5):
        ent = reg.get(f"mono-{k}")
        h = hardy_norm_disc(ent.evaluator, 1.0, 1e-8, spike=ent.spike)
        b = bergman_norm_disc(ent.evaluator, 1.0, 1e-10)
        print(f"  k = {k}: H {h.value:.9f}  A {b.value:.9f} "
              f"(exact {2 * np.pi / (k + 2):.9f})")

    # the embedding ||f||_A1 <= pi ||f||_H1 with constant pi (area of U)
    print("\nembedding check ||f||_A1 <= pi ||f||_H1:")
    for name in ("fa-0.9", "poly-7", "mono-2"):
        ent = reg.get(name)
        h = hardy_norm_disc(ent.evaluator, 1.0, 1e-7, spike=ent.spike)
        b = bergman_norm_disc(ent.evaluator, 1.0, 1e-9, spike=ent.spike)
        print(f"  {name:<8} A1/H1 = {b.value / h.value:.6f} "
              f"(bound {np.pi:.6f})")


if __name__ == "__main__":
    main()
