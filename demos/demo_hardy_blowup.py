"""Hardy norms of partial sums blowing up along a boundary schedule.

Every f_a has Hardy norm 1, yet with a_N = N/(N+1) tied to the truncation
order the partial sums S_N f_{a_N} grow like log N in Hardy norm.  The
two-term split S_N = T1 + T2 localizes the growth: T1 stays below 2 while
T2 tracks the logarithmic lower bound L(a, N).  Bergman norms of the same
partial sums stay bounded, which is the contrast the laboratory exists to
exhibit.  A short N grid keeps the demo quick; the blowup experiment
runner covers the full grid.
"""

from hardylab.norms import bergman_norm_disc, hardy_norm_disc
from hardylab.registry import TaggedEvaluator
from hardylab.witnesses import (T1T2Split, blowup_lower_bound,
                                blowup_schedule, t2_hardy_vs_bound)


def main():
    print(f"{'N':>4} {'a':>10} {'H1(S_N)':>10} {'A1(S_N)':>10} "
          f"{'H1(T1)':>8} {'H1(T2)':>8} {'T2/L':>7}")
    for N in (16, 32, 64, 128, 256):
        a = blowup_schedule(N)
        split = T1T2Split(a, N)
        partial = TaggedEvaluator(split.partial, a)
        h1 = hardy_norm_disc(partial, 1.0, 1e-6)
        a1 = bergman_norm_disc(partial, 1.0, 1e-6)
        t1 = hardy_norm_disc(TaggedEvaluator(split.t1, a), 1.0, 1e-6)
        row = t2_hardy_vs_bound(a, N)
        print(f"{N:>4} {a:>10.6f} {h1.value:>10.5f} {a1.value:>10.5f} "
              f"{t1.value:>8.4f} {row.t2_h1:>8.4f} {row.ratio:>7.4f}")
    print("\nlower bound L(a, N) = (1-|a|^2) |a|^(N+1) (N+2) log(1/(1-|a|)):")
    for N in (16, 256):
        a = blowup_schedule(N)
        print(f"  N = {N:<4} L = {blowup_lower_bound(a, N):.6f}")


if __name__ == "__main__":
    main()
