"""Square partial sums of a product function on the bidisc.

In several variables the Hardy norm runs over frontier shells of a
complete Reinhardt domain and the natural truncations are square partial
sums, keeping multi-indices with every component at most N.  For the
product f_{0.9} x f_{0.9} on the bidisc the Bergman norms of the square
sums plateau relative to the frontier Hardy norm, and the Bergman error
of the truncation drains away.  Shell monotonicity, the workhorse fact
behind the frontier supremum, gets a few spot checks at the end.
"""

import numpy as np

from hardylab.norms import (bergman_norm_reinhardt, hardy_norm_reinhardt,
                            monotonicity_check)
from hardylab.registry import default_registry
from hardylab.reinhardt import polydisc


def main():
    reg = default_registry()
    ent = reg.get("prod-fa-0.9")
    dom = polydisc(2)
    h1 = hardy_norm_reinhardt(ent.evaluator, 1.0, dom, dirs=64, tol=1e-6,
                              k_max=30, spike=ent.spike)
    print(f"frontier Hardy norm of f_0.9 x f_0.9 on U^2: {h1.value:.6f} "
          f"(exact (2 pi)^2 = {(2 * np.pi) ** 2:.6f})")

    print(f"\n{'N':>3} {'A1(S_N)':>10} {'ratio':>10} {'A1 err':>11}")
    for N in (1, 2, 4, 8, 16):
        a1 = bergman_norm_reinhardt(ent.partial_evaluator(N), 1.0,
                                    dom, tol=1e-4, spike=ent.spike)
        err = bergman_norm_reinhardt(ent.tail_evaluator(N), 1.0,
                                     dom, tol=1e-3, spike=ent.spike)
        print(f"{N:>3} {a1.value:>10.6f} {a1.value / h1.value:>10.6f} "
              f"{err.value:>11.4e}")

    print("\nshell monotonicity on nested bidisc shells:")
    rng = np.random.default_rng(99)
    for _ in range(3):
        t = rng.uniform(0.3, 0.8, 2)
        bump = rng.uniform(0.05, 0.15, 2)
        ok = monotonicity_check(ent.evaluator, 1.0, t, t + bump,
                                spike=ent.spike)
        print(f"  r = {np.round(t, 3)} vs R = {np.round(t + bump, 3)}: "
              f"{'ok' if ok else 'violated'}")


if __name__ == "__main__":
    main()
