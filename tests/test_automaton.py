import itertools
import random
from fractions import Fraction

import pytest

from dbhole.automaton import Hole, SurvivorAutomaton, build_automaton
from dbhole.rationals import lex_max_expansion, lex_min_expansion, pi_value
from dbhole.words import EvPeriodicWord

F = Fraction


def random_hole(rng, max_den=64):
    while True:
        qa, qb = rng.randrange(2, max_den + 1), rng.randrange(2, max_den + 1)
        a, b = F(rng.randrange(1, qa), qa), F(rng.randrange(1, qb), qb)
        if a < b:
            return Hole(a, b)


def lex_decided(word, ray):
    """-1/0/+1: word against the same-length prefix of the infinite ray."""
    for i, ch in enumerate(word):
        r = ray.sym(i)
        if ch != r:
            return -1 if ch < r else 1
    return 0


def dies(word, left_ray, right_ray):
    return any(
        lex_decided(word[k:], left_ray) > 0 and lex_decided(word[k:], right_ray) < 0
        for k in range(len(word))
    )


def accepts_periodic(auto, pre, per):
    s = auto.start
    for ch in pre:
        s = auto.transitions[s][int(ch)]
        if s < 0:
            return False
    seen = set()
    while s not in seen:
        seen.add(s)
        for ch in per:
            s = auto.transitions[s][int(ch)]
            if s < 0:
                return False
    return True


def tail_values(pre, per):
    for k in range(len(pre) + len(per)):
        if k < len(pre):
            yield pi_value(EvPeriodicWord(pre[k:], per))
        else:
            j = (k - len(pre)) % len(per)
            yield pi_value(EvPeriodicWord("", per[j:] + per[:j]))


def test_rejects_empty_or_inverted_hole():
    with pytest.raises(ValueError):
        Hole(F(2, 3), F(1, 3))
    with pytest.raises(ValueError):
        Hole(F(1, 3), F(1, 3))


def test_middle_hole_keeps_two_cycle_and_little_else():
    auto = build_automaton(Hole(F(1, 3), F(2, 3)))
    assert auto.n_states == 5
    assert accepts_periodic(auto, "", "01")
    assert not auto.accepts("011")  # value forced into (1/3, 2/3)
    assert not accepts_periodic(auto, "0", "110")
    # path growth is linear here, far from the 2^m of the full shift
    counts = [auto.count_paths(m) for m in (4, 8, 16)]
    assert counts[2] <= 2 * counts[1] <= 4 * counts[0]


def test_small_hole_grows_exponentially():
    auto = build_automaton(Hole(F(21, 50), F(29, 50)))
    assert auto.count_paths(16) > 1.25 * auto.count_paths(12)


def test_wide_hole_leaves_only_zero():
    # the only accepted sequences are the two constants; 1^inf codes the
    # point 1 outside [0, 1), so the surviving point set is {0}
    auto = build_automaton(Hole(F(3, 10), F(7, 10)))
    assert auto.count_paths(12, live_only=True) == 2
    assert accepts_periodic(auto, "", "0")
    assert accepts_periodic(auto, "", "1")
    assert not accepts_periodic(auto, "", "01")
    assert not accepts_periodic(auto, "1", "0")


def test_boundary_cycle_survives_open_hole():
    # hole endpoints belong to the 4-cycle coded 0110; openness keeps it alive
    auto = build_automaton(Hole(F(2, 5), F(3, 5)))
    assert accepts_periodic(auto, "", "0110")
    assert accepts_periodic(auto, "", "01")
    assert not accepts_periodic(auto, "", "001")


def test_full_interval_hole():
    auto = build_automaton(Hole(F(0), F(1)))
    assert accepts_periodic(auto, "", "0")
    assert accepts_periodic(auto, "", "1")
    assert not accepts_periodic(auto, "", "01")


def assert_prefixes_match_death(hole, max_len):
    """Every word of length <= max_len is a path exactly when it does not die."""
    auto = build_automaton(hole)
    left = lex_max_expansion(hole.a)
    right = lex_min_expansion(hole.b)
    for length in range(1, max_len + 1):
        for bits in itertools.product("01", repeat=length):
            w = "".join(bits)
            assert auto.accepts(w) == (not dies(w, left, right)), (hole, w)


def test_path_existence_matches_lexicographic_death():
    rng = random.Random(5)
    for _ in range(40):
        assert_prefixes_match_death(random_hole(rng), 9)


def test_periodic_acceptance_matches_exact_tail_values():
    rng = random.Random(6)
    for _ in range(150):
        hole = random_hole(rng)
        auto = build_automaton(hole)
        for _ in range(40):
            pre = "".join(rng.choice("01") for _ in range(rng.randrange(0, 4)))
            per = "".join(rng.choice("01") for _ in range(rng.randrange(1, 6)))
            expected = all(not hole.a < v < hole.b for v in tail_values(pre, per))
            assert accepts_periodic(auto, pre, per) == expected, (hole, pre, per)


def test_long_period_endpoints_checked_exhaustively_deeper():
    # denominators whose expansions have long periods stress the tie folding
    cases = [
        Hole(F(5, 37), F(23, 37)),   # period 36
        Hole(F(11, 61), F(32, 61)),  # period 60
        Hole(F(17, 53), F(30, 53)),  # period 52
    ]
    for hole in cases:
        assert_prefixes_match_death(hole, 12)


M100 = 2**100 - 1               # about 1.27e30; expansions of period 100
MIXED = 2**40 * (2**60 - 1)     # about 1.27e30; preperiod 40, period 60


@pytest.mark.parametrize("hole", [
    pytest.param(Hole(F(0), F(1)), id="full-interval"),
    pytest.param(Hole(F(0), F(1, 3)), id="a-zero"),
    pytest.param(Hole(F(0), F(2, 5)), id="a-zero-period-4"),
    pytest.param(Hole(F(2, 3), F(1)), id="b-one"),
    pytest.param(Hole(F(3, 7), F(1)), id="b-one-period-3"),
    pytest.param(Hole(F(1, 4), F(3, 4)), id="dyadic-both"),
    pytest.param(Hole(F(3, 8), F(5, 8)), id="dyadic-narrow"),
    pytest.param(Hole(F(1, 8), F(1, 2)), id="dyadic-half"),
    pytest.param(Hole(F(5, 16), F(11, 32)), id="dyadic-thin"),
    pytest.param(Hole(F(13, 32), F(9, 16)), id="dyadic-wide"),
    pytest.param(Hole(F(0), F(1, 2**100)), id="dyadic-preperiod-100"),
    pytest.param(Hole(1 - F(1, M100), F(1)), id="huge-near-one"),
    pytest.param(Hole(F(2 * M100 // 5 + 1, M100), F(2 * M100 // 5 + 1 + M100 // 50, M100)),
                 id="huge-period-100"),
    pytest.param(Hole(F(2 * MIXED // 5 + 1, MIXED), F(2 * MIXED // 5 + 1 + MIXED // 50, MIXED)),
                 id="huge-preperiod-40"),
    pytest.param(Hole(F(1650, 4003), F(1700, 4003)), id="prime-4003"),
    pytest.param(Hole(F(1700, 4019), F(1712, 4019)), id="prime-4019"),
])
def test_edge_endpoints_checked_exhaustively(hole):
    # endpoints random_hole never draws: 0, 1, dyadic (b's expansion ends in
    # 1^inf), denominators near 10^30 and prime denominators beyond 4000
    assert_prefixes_match_death(hole, 12)


def test_state_count_polynomial_in_expansion_lengths():
    rng = random.Random(7)
    for _ in range(120):
        hole = random_hole(rng)
        auto = build_automaton(hole)
        la = len(lex_max_expansion(hole.a).preperiod) + len(lex_max_expansion(hole.a).period)
        lb = len(lex_min_expansion(hole.b).preperiod) + len(lex_min_expansion(hole.b).period)
        assert auto.n_states <= (la + 2) * (lb + 2) * (la + lb + 2)


def test_dump_is_deterministic_and_diffable():
    auto = build_automaton(Hole(F(1, 3), F(2, 3)))
    text = auto.dump()
    assert text == build_automaton(Hole(F(1, 3), F(2, 3))).dump()
    assert text == (
        "states: 5\n"
        "start: 0\n"
        "live: 0 1 2 3 4\n"
        "0 0 -> 1\n"
        "0 1 -> 2\n"
        "1 0 -> 1\n"
        "1 1 -> 3\n"
        "2 0 -> 4\n"
        "2 1 -> 2\n"
        "3 0 -> 4\n"
        "4 1 -> 3\n"
    )


def test_from_transitions_live_pruning():
    # 0 -> 1 -> dead end; 0 -> 0 self loop stays live
    auto = SurvivorAutomaton.from_transitions([(0, 1), (-1, -1)])
    assert auto.live == [True, False]
    assert auto.count_paths(5, live_only=True) == 1
