"""Partial sums three ways: truncation, closed-form split, contour kernel.

Builds the extremal family member f_a for a = 0.7, takes the order-12
partial sum by plain coefficient truncation, by the two-term closed-form
split, and by the discrete Cauchy integral with the truncated geometric
kernel, then confirms all three agree at sample points.
"""

import numpy as np

from hardylab.series import partial_sum, partial_sum_kernel
from hardylab.witnesses import T1T2Split, fa_series


def main():
    a, N = 0.7, 12
    f = fa_series(a)
    pts = np.array([0.3 + 0.2j, -0.5j, 0.61, -0.44 + 0.38j])

    trunc = partial_sum(f, N)
    split = T1T2Split(a, N)
    print(f"f_a with a = {a}, partial sum order N = {N}")
    print(f"{'z':>22} {'truncation':>22} {'split':>22} {'kernel':>22}")
    kern = partial_sum_kernel(f, N, pts)
    for z, t, k in zip(pts, trunc(pts), kern):
        s = split.partial(z)
        print(f"{z:>22.4f} {t:>22.12f} {s:>22.12f} {k:>22.12f}")
    print("max |split - truncation| :",
          float(np.max(np.abs(split.partial(pts) - trunc(pts)))))
    print("max |kernel - truncation|:",
          float(np.max(np.abs(kern - trunc(pts)))))


if __name__ == "__main__":
    main()
