"""Property tests of the paper's invariants over random rational holes."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from dbhole.automaton import Hole  # noqa: E402
from dbhole.survivor import _zero_max_rotation, classify, kind_rank  # noqa: E402

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
    """(larger, smaller) with the smaller hole inside the larger one."""
    larger = draw(holes())
    c = draw(st.sampled_from([x for x in FRACTIONS if larger.a <= x < larger.b]))
    d = draw(st.sampled_from([x for x in FRACTIONS if c < x <= larger.b]))
    return larger, Hole(c, d)


@hypothesis.given(holes())
def test_mirror_hole_has_mirrored_classification(hole):
    cls, mirrored = classify(hole), classify(hole.mirror())
    assert mirrored.kind == cls.kind
    flipped = {_zero_max_rotation(w.translate(SWAP)) for w in cls.cycles}
    assert mirrored.cycles == tuple(sorted(flipped, key=lambda w: (len(w), w)))
    assert (mirrored.entropy_lo, mirrored.entropy_hi) == (cls.entropy_lo, cls.entropy_hi)


@hypothesis.given(nested_holes())
def test_larger_hole_never_ranks_higher(pair):
    larger, smaller = pair
    big, small = classify(larger), classify(smaller)
    assert kind_rank(big.kind) <= kind_rank(small.kind)
    assert big.entropy_lo <= small.entropy_hi
