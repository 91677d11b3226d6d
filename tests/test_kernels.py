import random
from fractions import Fraction

import pytest

from dbhole import Hole, kernels, survivor
from dbhole.rationals import BudgetExceededError
from oracles import reference_counts

F = Fraction
HUGE = 10**30


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


def test_depth_past_budget_raises_before_enumerating():
    with pytest.raises(BudgetExceededError) as info:
        kernels.cylinder_counts(kernels.MAX_CYLINDER_DEPTH + 1, 1, 3, 2, 3)
    assert info.value.partial is None


def test_survivor_dispatches_to_kernel_at_call_time(monkeypatch):
    calls = []

    def recorder(*args):
        calls.append(args)
        return 1, 2

    monkeypatch.setattr(kernels, "cylinder_counts", recorder)
    assert survivor.cylinder_counts(Hole(F(1, 3), F(2, 3)), 5) == (1, 2)
    assert calls == [(5, 1, 3, 2, 3)]
