#!/usr/bin/env python3
"""Desk-scale scan comparing forcing-length information from every angle.

For a small grid of patterns and alphabet sizes, print side by side:
the heuristic first-moment threshold, the rigorous exact threshold (largest
length with mean occurrence count provably below 1), the longest avoiding
word the search actually certifies, and the exact forcing length when one
exists below the cutoff.
"""

import argparse

from patstats.asymptotics import MeanKind
from patstats.bounds import avoidance_threshold, exact_avoidance_threshold
from patstats.oracle import CountKind
from patstats.search import SearchStatus, exact_ramsey_length, find_avoiding
from patstats.words import Pattern


def longest_found(p: Pattern, m: int, forcing: int | None, n_max: int) -> int:
    """The longest avoiding length up to n_max, certified by one witness search.

    Avoidance is closed under taking prefixes, so the longest avoiding word is
    one shorter than the forcing length, or n_max long when there is none.
    """
    n = n_max if forcing is None else forcing - 1
    if n and find_avoiding(CountKind.FULL, p, m, n).status is not SearchStatus.FOUND:
        raise RuntimeError(f"no {p.to_text()}-avoiding word of length {n} over {m} letters")
    return n


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--patterns", nargs="*", default=["aa", "aba", "aab", "abab"])
    ap.add_argument("--alphabets", nargs="*", type=int, default=[2, 3])
    ap.add_argument("--n-max", type=int, default=12)
    args = ap.parse_args()

    print(f"{'pattern':>8} {'m':>3} {'heuristic':>10} {'exact-thr':>10} "
          f"{'found-len':>10} {'forcing-L':>10}")
    for text in args.patterns:
        p = Pattern.from_text(text)
        for m in args.alphabets:
            # the first-moment heuristic needs two letters; the rest hold at m = 1
            heuristic = f"{avoidance_threshold(MeanKind.FULL, p, m):.3f}" if m >= 2 else "-"
            exact_thr = exact_avoidance_threshold(CountKind.FULL, p, m, args.n_max)
            forcing = exact_ramsey_length(CountKind.FULL, p, m, args.n_max)
            found = longest_found(p, m, forcing, args.n_max)
            forcing_txt = str(forcing) if forcing is not None else f">{args.n_max}"
            print(f"{text:>8} {m:>3} {heuristic:>10} {exact_thr:>10} "
                  f"{found:>10} {forcing_txt:>10}")


if __name__ == "__main__":
    main()
