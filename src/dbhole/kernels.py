"""Dyadic-cylinder survival counting.

The one hot loop of the package and the independent brute-force check on
automaton path counts: it tests intervals directly and never builds an
automaton.  Arbitrary-precision integers throughout.
"""

from __future__ import annotations


def cylinder_counts(depth: int, pa: int, qa: int, pb: int, qb: int) -> tuple[int, int]:
    """Survival bracket over all dyadic cylinders of generation ``depth``.

    For each cylinder [k/2^d, (k+1)/2^d] the images under the first ``depth``
    iterates of 2x mod 1 are dyadic intervals computed with integers only.
    lower counts cylinders with every image disjoint from the open interval
    (pa/qa, pb/qb); upper counts cylinders with no image contained in it.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    n = 1 << depth
    mask = n - 1
    a_scaled = pa * n
    b_scaled = pb * n
    lower = 0
    upper = 0
    for k in range(n):
        c = k
        disjoint = True
        never_inside = True
        w = 1
        for _ in range(depth):
            top = c + w
            if disjoint and not (top * qa <= a_scaled or c * qb >= b_scaled):
                disjoint = False
                if not never_inside:
                    break
            if never_inside and c * qa > a_scaled and top * qb < b_scaled:
                never_inside = False
                if not disjoint:
                    break
            c = (c << 1) & mask
            w <<= 1
        lower += disjoint
        upper += never_inside
    return lower, upper
