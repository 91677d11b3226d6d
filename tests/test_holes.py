import math
import random
from fractions import Fraction

import pytest

from dbhole.holes import (
    catalog,
    certify_entry,
    gap_interval,
    sturmian_hole,
)
from dbhole.holes import test_supercritical as run_supercritical
from dbhole.rationals import binary_expansion, pi_value
from dbhole.survivor import Kind
from dbhole.words import cf_of_fraction

F = Fraction
EPS = F(1, 1024)


def all_gap_tuples(max_q):
    out = []
    for q in range(3, max_q + 1):
        for p in range(1, (q - 1) // 2 + 1):
            if math.gcd(p, q) == 1:
                out.append(cf_of_fraction(p, q))
    return out


def test_gap_interval_examples():
    gap = gap_interval((2,))
    assert (gap.alpha, gap.beta) == (F(2, 7), F(9, 28))
    assert gap.gamma == F(4, 7)
    gap = gap_interval((1, 2))
    assert (gap.alpha, gap.beta) == (F(10, 31), F(41, 124))


def test_gap_interval_for_quarter_family():
    # tuple (3), i.e. the rational 1/4: endpoints from the defining words
    from dbhole.words import EvPeriodicWord
    gap = gap_interval((3,))
    assert gap.alpha == pi_value(EvPeriodicWord.make("01", "0001"))
    assert gap.beta == pi_value(EvPeriodicWord.make("01", "0010"))


def test_gap_interval_requires_final_entry_two():
    with pytest.raises(ValueError):
        gap_interval((1, 1))
    with pytest.raises(ValueError):
        gap_interval((0, 2))


@pytest.mark.parametrize("cf", all_gap_tuples(25))
def test_gap_interval_invariants(cf):
    gap = gap_interval(cf)
    assert F(1, 4) < gap.alpha < gap.beta < F(1, 3)
    assert gap.gamma == gap.beta + F(1, 4)
    wa = binary_expansion(gap.alpha)
    wg = binary_expansion(gap.gamma)
    assert wa.preperiod == "" and wg.preperiod == ""
    assert gap.q % len(wa.period) == 0 and gap.q % len(wg.period) == 0
    # alpha and gamma codings are rotations of one another
    pa = wa.period * (gap.q // len(wa.period))
    pg = wg.period * (gap.q // len(wg.period))
    assert pg in pa + pa


def test_sturmian_hole_fibonacci():
    hole = sturmian_hole((1, 1, 1, 1, 1, 1, 1), 30)
    lo, hi = hole.left
    assert hi - lo <= F(1, 2**30)
    assert abs(float(lo) - 0.322549) < 1e-6
    assert abs(float(hole.right[0]) - 0.572549) < 1e-6
    assert hole.right[0] - hole.left[0] == F(1, 4)
    assert hole.right[1] - hole.left[1] == F(1, 4)


def test_sturmian_hole_left_endpoint_approaches_quarter():
    lo, hi = sturmian_hole((9,), 30).left
    assert F(1, 4) < lo < hi < F(1, 4) + F(1, 500)


def test_sturmian_left_endpoints_inside_quarter_third():
    samples = [(1, 1, 1, 1, 1, 1), (2, 2, 2, 2), (9,), (1, 2, 1, 2)]
    for lo, hi in (sturmian_hole(cf, 30).left for cf in samples):
        assert F(1, 4) < lo < hi < F(1, 3)


def test_catalog_contains_the_reference_holes():
    entries = catalog(7)
    holes = {(e.left, e.right) for e in entries}
    for left, right in [
        (F(2, 7), F(15, 28)), (F(9, 28), F(4, 7)),
        (F(10, 31), F(71, 124)), (F(41, 124), F(18, 31)),
        (F(1, 3), F(7, 12)),
    ]:
        assert (left, right) in holes
        assert (1 - right, 1 - left) in holes


def test_catalog_width_law_and_mirrors():
    entries = catalog(9, sturmian_samples=[(1, 1, 1, 1, 1, 1)])
    seen = set()
    for e in entries:
        key = (e.left, e.right)
        assert key not in seen
        seen.add(key)
        if e.family.startswith("degenerate"):
            lo = e.left if not isinstance(e.left, tuple) else e.left[0]
            hi = e.right if not isinstance(e.right, tuple) else e.right[1]
            assert hi - lo >= F(1, 4)
        elif isinstance(e.left, tuple):
            assert e.right[0] - e.left[0] == F(1, 4)
        else:
            assert e.right - e.left == F(1, 4)
    for e in entries:
        if isinstance(e.left, tuple):
            mirrored = ((1 - e.right[1], 1 - e.right[0]), (1 - e.left[1], 1 - e.left[0]))
        else:
            mirrored = (1 - e.right, 1 - e.left)
        assert mirrored in seen


def test_catalog_gap_families_at_small_q():
    entries = catalog(5)
    gap_entries = [e for e in entries if e.family in ("gap-alpha", "gap-beta")]
    assert len(gap_entries) == 8  # tuples for 1/3, 1/4, 1/5, 2/5
    params = {(e.parameter["p"], e.parameter["q"]) for e in gap_entries}
    assert params == {(1, 3), (1, 4), (1, 5), (2, 5)}


def test_supercritical_examples():
    assert run_supercritical(F(2, 7), F(15, 28), EPS).passed
    report = run_supercritical(F(1, 3), F(2, 3), EPS)
    assert not report.passed
    assert report.inner.kind is Kind.COUNTABLE_CYCLES
    assert not run_supercritical(F(3, 10), F(11, 20), EPS).passed


def test_supercritical_rejects_empty_inner():
    with pytest.raises(ValueError):
        run_supercritical(F(1, 3), F(1, 3) + F(1, 1000), EPS)


def test_supercritical_on_sturmian_bracket():
    hole = sturmian_hole((1, 1, 1, 1, 1, 1, 1, 1), 40)
    report = run_supercritical(hole.left, hole.right, F(1, 256))
    assert report.passed


def test_certification_at_coarser_epsilon():
    # the verdicts must be stable in the test resolution
    entries = [e for e in catalog(20) if not isinstance(e.left, tuple)]
    assert all(run_supercritical(e.left, e.right, F(1, 256)).passed for e in entries)


def test_certify_mirrored_sturmian_entry():
    entries = catalog(3, sturmian_samples=[(1, 1, 1, 1, 1, 1, 1, 1)], precision_bits=40)
    mirrored = [e for e in entries if e.family == "sturmian-mirror"]
    assert len(mirrored) == 1
    assert certify_entry(mirrored[0], F(1, 256)).passed


def test_supercritical_clamps_degenerate_family():
    assert run_supercritical(F(0), F(1, 2), EPS).passed
    assert run_supercritical(F(1, 2), F(1), EPS).passed
    assert run_supercritical(F(1, 4), F(1, 2), EPS).passed


def test_gap_interior_points_are_not_supercritical():
    rng = random.Random(17)
    joint = [(2,), (3,), (1, 2), (4,)]
    checked = 0
    for cf in joint:
        gap = gap_interval(cf)
        lo, hi = gap.alpha + 2 * EPS, gap.beta - 2 * EPS
        if lo >= hi:
            continue
        for _ in range(5):
            x = lo + (hi - lo) * F(rng.randrange(1, 64), 64)
            assert not run_supercritical(x, x + F(1, 4), EPS).passed
            checked += 1
    assert checked >= 20


def test_extension_alphas_interleave_toward_the_sturmian_limit():
    base = (1, 2)
    alphas = []
    for extra in range(4):
        cf = base + (2,) * extra
        alphas.append((len(cf), gap_interval(cf).alpha))
    odd = [a for n, a in alphas if n % 2 == 1]
    even = [a for n, a in alphas if n % 2 == 0]
    assert all(x > y for x, y in zip(odd, odd[1:]))      # decreasing from above
    assert all(x < y for x, y in zip(even, even[1:]))    # increasing from below
    assert max(even) < min(odd)


def test_certify_entry_marks_catalog():
    entries = catalog(5)
    rational = [e for e in entries if not isinstance(e.left, tuple)]
    report = certify_entry(rational[0], EPS)
    assert rational[0].certified is report.passed
    assert rational[0].epsilon == EPS
