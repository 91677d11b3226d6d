import itertools
import random
import re
import time
import tracemalloc
from fractions import Fraction

import pytest

from dbhole import automaton
from dbhole.automaton import Hole, SurvivorAutomaton, build_automaton
from dbhole.survivor import classify
from dbhole.rationals import BudgetExceededError, lex_max_expansion, lex_min_expansion, pi_value
from dbhole.words import EvPeriodicWord
from oracles import accepts, common_prefix_len, peel_dead_ends, reference_transitions

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
    s = 0
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
    assert not accepts(auto, "011")  # value forced into (1/3, 2/3)
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
            assert accepts(auto, w) == (not dies(w, left, right)), (hole, w)


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
W12 = F(1, 2**13)               # half of 2^-12


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
    pytest.param(Hole(F(1, 2) - F(1, 2**200), F(1, 2) + F(1, 2**200)), id="window-past-prefix"),
])
def test_edge_endpoints_checked_exhaustively(hole):
    # endpoints random_hole never draws: 0, 1, dyadic (b's expansion ends in
    # 1^inf), denominators near 10^30, prime denominators beyond 4000, and
    # endpoints 2^-199 apart around 1/2: they share no symbol, though the
    # prefix step reads a window of about 200 digits
    assert_prefixes_match_death(hole, 12)


@pytest.mark.parametrize("hole", [
    pytest.param(Hole(F(1, 3) - W12, F(1, 3) + W12), id="around-1/3"),
    pytest.param(Hole(F(1, 3), F(1, 3) + 2 * W12), id="above-1/3"),
    pytest.param(Hole(F(2, 5) - W12, F(2, 5) + W12), id="around-2/5"),
    pytest.param(Hole(F(2, 5) - 2 * W12, F(2, 5)), id="below-2/5"),
    pytest.param(Hole(F(170, 509), F(171, 509)), id="thin-509-near-1/3"),
    pytest.param(Hole(F(204, 509), F(205, 509)), id="thin-509-near-2/5"),
    pytest.param(Hole(F(341, 1019), F(342, 1019)), id="thin-1019"),
    pytest.param(Hole(F(801, 2003), F(802, 2003)), id="thin-2003"),
])
def test_long_self_overlapping_common_prefix(hole):
    # the endpoints share 6-11 symbols of 0101... or 0110..., so a suffix
    # ties with several shifts of the common prefix at once; words of 14
    # symbols reach past a whole-prefix tie into the endpoint tails
    assert_prefixes_match_death(hole, 14)


# 2^(v-1) != 1 (mod v) and the least prime factor of v is about 1.4e14
NO_SMALL_FACTOR = 3 * 2**98 - 1


@pytest.mark.parametrize("hole", [
    pytest.param(Hole(F(1, 3), F(NO_SMALL_FACTOR // 2, NO_SMALL_FACTOR)), id="no-small-factor"),
    # factors at once, but the period of 2 modulo 10^30 + 1 is about 3.8e16
    pytest.param(Hole(F(1, 3), F(10**30 // 2, 10**30 + 1)), id="period-3.8e16"),
])
def test_endpoint_expansion_budget(hole):
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=str(hole.b.denominator)):
        build_automaton(hole)
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("hole, calls", [
    *[pytest.param(Hole(F(k, q), F(q - k, q)), 1, id=f"{k}/{q}-symmetric")
      for k, q in [(1, 3), (3, 10), (2, 7), (1067, 3203), (1999, 4001)]],
    pytest.param(Hole(F(1, 3), F(7, 12)), 2, id="denominators-3-and-12"),
    pytest.param(Hole(F(1, 3), F(2, 5)), 2, id="denominators-3-and-5"),
])
def test_build_expands_each_denominator_once(hole, calls, monkeypatch):
    expanded = []
    for name in ("lex_max_expansion", "lex_min_expansion"):
        def counted(x, name=name, real=getattr(automaton, name)):
            expanded.append((name, x))
            return real(x)
        monkeypatch.setattr(automaton, name, counted)
    build_automaton(hole)
    assert expanded == [("lex_max_expansion", hole.a), ("lex_min_expansion", hole.b)][:calls]


@pytest.mark.parametrize("make", [
    pytest.param(lambda k: Hole(0, F(1, 2**k)), id="zero-to-dyadic"),
    pytest.param(lambda k: Hole(F(1, 2), F(1, 2) + F(1, 2**k)), id="dyadic-both"),
    pytest.param(lambda k: Hole(F(1, 3), F(1, 3) + F(1, 2**k)), id="third"),
])
def test_common_prefix_past_budget_is_refused_before_the_build(make, monkeypatch):
    # the endpoints share about k symbols: a hole is refused up front exactly
    # when they share more than MAX_STATES
    monkeypatch.setattr(automaton, "MAX_STATES", 1000)
    for k in range(995, 1006):
        hole = make(k)
        try:
            build_automaton(hole)
            refused = False
        except BudgetExceededError as exc:
            refused = "share more than 1000 leading" in str(exc)
        assert refused == (common_prefix_len(hole) > 1000), k
    with pytest.raises(BudgetExceededError, match="share more than 1000 leading"):
        build_automaton(make(40_000))


@pytest.mark.parametrize("hole", [
    pytest.param(Hole(F(1, 3), F(1, 3) + F(1, 2**15000)), id="prefix-budget"),
    pytest.param(Hole(F(1, 3), F(1, 2) + F(1, 2**15000)), id="state-budget"),
])
def test_budget_message_names_huge_endpoints_by_size(hole, monkeypatch):
    # a 15,000-bit denominator has over 4,300 digits, which Python refuses
    # to write in decimal
    monkeypatch.setattr(automaton, "MAX_STATES", 100)
    with pytest.raises(BudgetExceededError, match="-bit integer>"):
        classify(hole)


def test_state_count_polynomial_in_expansion_lengths():
    rng = random.Random(7)
    for _ in range(120):
        hole = random_hole(rng)
        auto = build_automaton(hole)
        la = len(lex_max_expansion(hole.a).preperiod) + len(lex_max_expansion(hole.a).period)
        lb = len(lex_min_expansion(hole.b).preperiod) + len(lex_min_expansion(hole.b).period)
        assert auto.n_states <= (la + 2) * (lb + 2) * (la + lb + 2)


def test_build_is_deterministic():
    auto = build_automaton(Hole(F(1, 3), F(2, 3)))
    assert auto == build_automaton(Hole(F(1, 3), F(2, 3)))
    assert auto.transitions == [(1, 2), (1, 3), (4, 2), (4, -1), (-1, 3)]
    assert auto.live == [True] * 5


def random_transitions(rng):
    """A 2-out table with self-loops, t0 == t1 pairs and dead chains."""
    n = rng.randrange(1, 25)
    chain = rng.randrange(0, 6)
    total = n + chain

    def target(s):
        r = rng.random()
        return -1 if r < 0.25 else s if r < 0.4 else rng.randrange(total)

    trans = []
    for s in range(n):
        t0 = target(s)
        t1 = t0 if rng.random() < 0.15 else target(s)
        trans.append((t0, t1))
    # a chain n -> n+1 -> ... -> dead end, entered from the random part
    trans += [(n + i + 1, -1) for i in range(chain - 1)] + [(-1, -1)] * (chain > 0)
    return trans


def test_live_flags_match_dead_end_peeling():
    rng = random.Random(9)
    for _ in range(600):
        trans = random_transitions(rng)
        assert SurvivorAutomaton.from_transitions(trans).live == peel_dead_ends(trans), trans
    for _ in range(150):
        hole = random_hole(rng)
        auto = build_automaton(hole)
        assert auto.live == peel_dead_ends(auto.transitions), hole


def test_from_transitions_live_pruning():
    # 0 -> 1 -> dead end; 0 -> 0 self loop stays live
    auto = SurvivorAutomaton.from_transitions([(0, 1), (-1, -1)])
    assert auto.live == [True, False]
    assert auto.count_paths(5, live_only=True) == 1


def test_count_paths_rejects_negative_length():
    auto = build_automaton(Hole(F(1, 3), F(2, 3)))
    assert auto.count_paths(0) == auto.count_paths(0, live_only=True) == 1
    with pytest.raises(ValueError, match="-5"):
        auto.count_paths(-5)
    with pytest.raises(ValueError, match="-1"):
        auto.count_paths(-1, live_only=True)


@pytest.mark.parametrize("hole", [
    pytest.param(Hole(F(1, 3), F(2, 3)), id="middle-third"),
    pytest.param(Hole(F(21, 50), F(29, 50)), id="branching"),
    pytest.param(Hole(F(341, 1019), F(342, 1019)), id="thin-1019"),
])
def test_state_budget_boundary(hole, monkeypatch):
    full = build_automaton(hole)
    n = full.n_states
    monkeypatch.setattr(automaton, "MAX_STATES", n)
    assert build_automaton(hole) == full
    monkeypatch.setattr(automaton, "MAX_STATES", n - 1)
    message = re.escape(f"automaton for {hole} exceeds {n - 1} states")
    with pytest.raises(BudgetExceededError, match=message):
        build_automaton(hole)


def dyadic_or_small(rng):
    if rng.random() < 0.6:
        k = rng.randrange(1, 12)
        return F(rng.randrange(0, 2**k + 1), 2**k)
    q = rng.randrange(2, 65)
    return F(rng.randrange(0, q + 1), q)


def seeded_holes(rng):
    """(shape, hole) for 2,020 holes of the shapes the build treats apart."""
    holes = []
    while len(holes) < 600:  # a = 0, b = 1 and dyadic endpoints (B ends in 1^inf)
        a = F(0) if rng.random() < 0.25 else dyadic_or_small(rng)
        b = F(1) if rng.random() < 0.25 else dyadic_or_small(rng)
        if a < b:
            holes.append(("dyadic", Hole(a, b)))
    for _ in range(600):  # both endpoints inside one dyadic interval of length 2^-m
        m = rng.randrange(10, 17)
        # a short repeating pattern makes the common prefix overlap itself
        period = rng.randrange(1, 5) if rng.random() < 0.7 else m
        pattern = [rng.randrange(2) for _ in range(period)]
        j = int("".join(str(pattern[i % period]) for i in range(m)), 2)
        q = rng.randrange(3, 40)
        u, v = sorted(rng.sample(range(1, q), 2))
        holes.append(("prefix", Hole(F(j * q + u, q << m), F(j * q + v, q << m))))
    for q in (509, 1019, 2003):  # thin holes with long-period endpoints
        for _ in range(40):
            k = rng.randrange(q // 4, q // 2)
            holes.append(("thin", Hole(F(k, q), F(k + 1, q))))
    for q in (M100, MIXED):  # denominators near 10^30
        for _ in range(150):
            p = rng.randrange(q // 4, q // 2)
            holes.append(("huge", Hole(F(p, q), F(p + rng.randrange(1, q // 20), q))))
    for _ in range(400):
        holes.append(("random", random_hole(rng)))
    return holes


def border_holes():
    """(shape, hole) for common prefixes of up to 64 digits, periodic near
    1/3 and 5/7, so their KMP border chains run the prefix's length, and
    for the prefix lengths 0 and 1."""
    holes = [("cstar0", Hole(F(1, 4), F(3, 4))), ("cstar1", Hole(F(1, 8), F(3, 8)))]
    for k in range(2, 65):
        eps = F(1, 2**k)
        holes += [("border", Hole(F(1, 3), F(1, 3) + eps)),
                  ("border", Hole(F(1, 3) - eps, F(1, 3))),
                  ("border", Hole(F(1, 2) - eps, F(1, 2)))]
        if k >= 4:
            holes.append(("border", Hole(F(5, 7), F(5, 7) + 3 * eps)))
    return holes


def test_transitions_match_shift_and_reference():
    # fails if B reading 1 kills the 0-edge at 2 bmax >= qb (a B tail of 1/2
    # reads 0), if the a_first tie is dropped, if the two KMP step tables
    # trade places, or if a mismatch falls back to 0 rather than to the border
    holes = seeded_holes(random.Random(41)) + border_holes()
    assert len(holes) >= 2000
    for _, hole in holes:
        assert build_automaton(hole).transitions == reference_transitions(hole), hole
    assert all(common_prefix_len(hole) >= 10 for shape, hole in holes if shape == "prefix")
    prefix = {shape: common_prefix_len(hole) for shape, hole in holes if shape.startswith("cstar")}
    assert prefix == {"cstar0": 0, "cstar1": 1}
    assert max(common_prefix_len(hole) for shape, hole in holes if shape == "border") >= 64


@pytest.mark.parametrize("hole, bound_mb", [
    (Hole(F(1067, 3203), F(1068, 3203)), 1.8),  # thin, a 3,214-state branching component
    (Hole(F(1, 3), F(1, 3) + F(1, 2**5000)), 7.5),  # a 5,000-digit self-overlapping prefix
], ids=["thin-3203", "prefix-5000"])
def test_build_peak_memory(hole, bound_mb):
    # states keyed by a tie mask as wide as the common prefix, with the state
    # index kept alive through the SCC pass, peaked at 2.2 and 10.1 MB; the
    # KMP border and a freed index peak at 1.40 and 5.14 MB on Python
    # 3.10.13, 1.44 and 5.32 MB on 3.11.7, and 1.44 and 5.19 MB on 3.12.1
    build_automaton(hole)  # fills the endpoints' period cache outside the trace
    tracemalloc.start()
    try:
        build_automaton(hole)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 2**20, peak
