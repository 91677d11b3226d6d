import itertools
import random
from fractions import Fraction

import pytest

from dbhole import kernels

F = Fraction
HUGE = 10**30


def reference_counts(depth, pa, qa, pb, qb):
    """Direct Fraction transcription of the contract, for small depth."""
    a, b = F(pa, qa), F(pb, qb)
    lower = upper = 0
    for bits in itertools.product((0, 1), repeat=depth):
        disjoint = True
        never_inside = True
        for k in range(depth):
            tail = bits[k:]
            lo = F(sum(t << (len(tail) - 1 - i) for i, t in enumerate(tail)), 1 << len(tail))
            hi = lo + F(1, 1 << len(tail))
            if not (hi <= a or lo >= b):
                disjoint = False
            if a < lo and hi < b:
                never_inside = False
        lower += disjoint
        upper += never_inside
    return lower, upper


@pytest.mark.parametrize("pa,qa,pb,qb", [
    (1, 3, 2, 3), (3, 10, 7, 10), (21, 50, 29, 50), (1, 2, 3, 4), (0, 1, 1, 4),
    pytest.param(1, 3, HUGE - 1, HUGE, id="huge-denominator"),
])
def test_pure_kernel_matches_reference(pa, qa, pb, qb):
    for depth in (4, 7):
        assert kernels.cylinder_counts(depth, pa, qa, pb, qb) == \
            reference_counts(depth, pa, qa, pb, qb)


def test_kernel_matches_reference_on_random_holes():
    rng = random.Random(8)
    for depth in range(1, 9):
        for _ in range(6):
            a, b = sorted(F(rng.randrange(q + 1), q)
                          for q in (rng.randrange(1, 65), rng.randrange(1, 65)))
            args = (a.numerator, a.denominator, b.numerator, b.denominator)
            assert kernels.cylinder_counts(depth, *args) == \
                reference_counts(depth, *args), (depth, a, b)


def test_depth_zero_raises():
    with pytest.raises(ValueError):
        kernels.cylinder_counts(0, 1, 3, 2, 3)
