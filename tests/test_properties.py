"""Property tests of the paper's invariants over random rational holes."""

import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from dbhole import automaton  # noqa: E402
from dbhole.automaton import Hole, build_automaton  # noqa: E402
from dbhole.rationals import BudgetExceededError  # noqa: E402
from dbhole.survivor import (  # noqa: E402
    Kind,
    _zero_max_rotation,
    classify,
    cylinder_counts,
    entropy,
    enumerate_surviving_cycles,
)
from oracles import common_prefix_len  # noqa: E402

MAX_DEN = 32
FRACTIONS = sorted({Fraction(k, q) for q in range(1, MAX_DEN + 1) for k in range(q + 1)})
HALF = Fraction(1, 2)
SWAP = str.maketrans("01", "10")


@st.composite
def holes(draw):
    """Any hole, or one around 1/2, where CountableCycles lives."""
    if draw(st.booleans()):
        a = draw(st.sampled_from([x for x in FRACTIONS if 1 / 4 <= x < HALF]))
        b = draw(st.sampled_from([x for x in FRACTIONS if HALF < x <= 3 / 4]))
        return Hole(a, b)
    a = draw(st.sampled_from(FRACTIONS[:-1]))
    return Hole(a, draw(st.sampled_from([x for x in FRACTIONS if x > a])))


@st.composite
def nested_holes(draw):
    """(larger, smaller) with each end of the larger hole moved inward by 0-3
    steps of FRACTIONS, so the smaller hole is often still below
    PositiveEntropy."""
    larger = draw(st.one_of(holes(), central_holes()))
    i, j = FRACTIONS.index(larger.a), FRACTIONS.index(larger.b)
    i += draw(st.integers(0, min(3, j - i - 1)))
    j -= draw(st.integers(0, min(3, j - i - 1)))
    return larger, Hole(FRACTIONS[i], FRACTIONS[j])


@st.composite
def central_holes(draw):
    """A hole (a, b) with 1/3 <= a < 9/20 and 11/20 < b <= 2/3: mostly no
    positive entropy, often asymmetric."""
    a = draw(st.sampled_from([x for x in FRACTIONS if 1 / 3 <= x < 9 / 20]))
    return Hole(a, draw(st.sampled_from([x for x in FRACTIONS if 11 / 20 < x <= 2 / 3])))


@st.composite
def prefix_holes(draw):
    """A hole inside one dyadic interval [j/2^m, (j+1)/2^m], often touching
    its ends, so its endpoint expansions share at least m symbols."""
    m = draw(st.integers(0, 40))
    j = draw(st.integers(0, (1 << m) - 1))
    q = draw(st.integers(1, 40))
    u = draw(st.integers(0, q - 1))
    v = draw(st.integers(u + 1, q))
    return Hole(Fraction(j * q + u, q << m), Fraction(j * q + v, q << m))


@hypothesis.given(st.one_of(holes(), prefix_holes()))
def test_states_outnumber_common_prefix(hole):
    # the start state and the state after each prefix of the common prefix
    # are distinct, so the budget may refuse a longer prefix before the build
    # (hypothesis refuses function-scoped fixtures, so no monkeypatch argument)
    auto = build_automaton(hole)
    assert auto.n_states > common_prefix_len(hole)
    with pytest.MonkeyPatch.context() as budget:
        budget.setattr(automaton, "MAX_STATES", auto.n_states)
        assert build_automaton(hole).transitions == auto.transitions
        budget.setattr(automaton, "MAX_STATES", auto.n_states - 1)
        with pytest.raises(BudgetExceededError):
            build_automaton(hole)


@hypothesis.given(st.one_of(holes(), central_holes()))
def test_mirror_hole_has_mirrored_classification(hole):
    cls, mirrored = classify(hole), classify(hole.mirror())
    assert mirrored.kind == cls.kind
    flipped = {_zero_max_rotation(w.translate(SWAP)) for w in cls.cycles}
    assert mirrored.cycles == tuple(sorted(flipped, key=lambda w: (len(w), w)))
    # classify() reads the mirror's bracket from its memo, so compute it afresh
    fresh = (entropy(build_automaton(hole.mirror()))
             if cls.kind is Kind.POSITIVE_ENTROPY else (0.0, 0.0))
    assert (mirrored.entropy_lo, mirrored.entropy_hi) == fresh == (cls.entropy_lo, cls.entropy_hi)


@hypothesis.given(nested_holes())
def test_larger_hole_never_ranks_higher(pair):
    larger, smaller = pair
    big, small = classify(larger), classify(smaller)
    assert list(Kind).index(big.kind) <= list(Kind).index(small.kind)
    assert big.entropy_lo <= small.entropy_hi


@hypothesis.settings(max_examples=200)
@hypothesis.given(st.one_of(holes(), central_holes()))
# the cycle 01 passes through a, then through b
@hypothesis.example(Hole(Fraction(1, 3), Fraction(3, 5)))
@hypothesis.example(Hole(Fraction(2, 5), Fraction(2, 3)))
def test_listed_cycles_match_necklace_enumeration(hole):
    cls = classify(hole)
    if cls.kind is Kind.POSITIVE_ENTROPY:
        return
    max_len = max((len(w) for w in cls.cycles), default=8)
    listed = [w for w in enumerate_surviving_cycles(hole, max_len) if w != "0"]
    assert tuple(listed) == cls.cycles


@hypothesis.given(holes(), st.integers(1, 10))
def test_path_counts_lie_inside_cylinder_counts(hole, depth):
    lower, upper = cylinder_counts(hole, depth)
    assert lower <= build_automaton(hole).count_paths(depth) <= upper


@hypothesis.given(holes())
def test_entropy_lies_below_path_count_growth(hole):
    # the survivor language is factor-closed, so N(n) is submultiplicative
    # and by Fekete's lemma the entropy is inf over n of log N(n) / n
    cls = classify(hole)
    hypothesis.assume(cls.kind is Kind.POSITIVE_ENTROPY)
    auto = build_automaton(hole)
    for n in range(1, 25):
        assert cls.entropy_lo <= math.log(auto.count_paths(n, live_only=True)) / n, n


@hypothesis.given(holes())
def test_path_counts_are_submultiplicative(hole):
    # a survivor word of length m + n splits into survivor words of lengths
    # m and n (the language is factor-closed), so N(m + n) <= N(m) N(n)
    auto = build_automaton(hole)
    counts = [auto.count_paths(n, live_only=True) for n in range(25)]
    for m in range(1, 13):
        for n in range(1, 13):
            assert counts[m + n] <= counts[m] * counts[n], (m, n)
