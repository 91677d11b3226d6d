"""Dyadic-cylinder survival counting.

The independent brute-force check on automaton path counts: it tests
intervals directly and never builds an automaton.  Arbitrary-precision
integers throughout.

With n = 2^depth, every image is an interval [c/n, top/n] with integer
ends, and the hole's ends enter only through two integers computed once,
lo = floor(pa·n/qa) and hi = ceil(pb·n/qb).  For integers x and q > 0,
x·q <= P holds exactly when x <= floor(P/q), and x·q >= P exactly when
x >= ceil(P/q).  So the image meets the open hole iff lo < top and c < hi,
and lies inside it iff lo < c and top < hi: the same verdicts as the
cross-multiplied products top·qa <= pa·n and c·qb >= pb·n, with no
big-integer product per step.
"""

from __future__ import annotations

from .rationals import BudgetExceededError

# Deepest generation enumerated: 2^20 cylinders, up to about 4 s a call
# (CPython 3.11, 2-vCPU VM); the deepest caller, the benchmark's oracle, uses 16.
MAX_CYLINDER_DEPTH = 20


def cylinder_counts(depth: int, pa: int, qa: int, pb: int, qb: int) -> tuple[int, int]:
    """Survival bracket over all dyadic cylinders of generation ``depth``.

    For each cylinder [k/2^d, (k+1)/2^d] the images under the first ``depth``
    iterates of 2x mod 1 are dyadic intervals computed with integers only.
    lower counts cylinders with every image disjoint from the open interval
    (pa/qa, pb/qb); upper counts cylinders with no image contained in it.
    A ``depth`` above ``MAX_CYLINDER_DEPTH`` raises BudgetExceededError
    before any cylinder is enumerated.
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    if depth > MAX_CYLINDER_DEPTH:
        raise BudgetExceededError(
            f"cylinder depth {depth} is above {MAX_CYLINDER_DEPTH}"
        )
    n = 1 << depth
    mask = n - 1
    lo = pa * n // qa
    hi = -(-pb * n // qb)
    lower = 0
    upper = 0
    for k in range(n):
        c = k
        disjoint = True
        never_inside = True
        w = 1
        for _ in range(depth):
            top = c + w
            if disjoint and lo < top and c < hi:
                disjoint = False
                if not never_inside:
                    break
            if never_inside and lo < c and top < hi:
                never_inside = False
                if not disjoint:
                    break
            c = (c << 1) & mask
            w <<= 1
        lower += disjoint
        upper += never_inside
    return lower, upper
