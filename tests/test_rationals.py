import random
from fractions import Fraction

import pytest

from dbhole.rationals import (
    BudgetExceededError,
    binary_expansion,
    format_fraction,
    format_short,
    lex_max_expansion,
    lex_min_expansion,
    parse_fraction,
    pi_value,
)
from dbhole.words import EvPeriodicWord
from dbhole.holes import gap_interval
from dbhole.words import cf_of_fraction
from oracles import doubling_map, lex_compare, orbit

F = Fraction


@pytest.mark.parametrize("pre,per,value", [
    ("", "01", F(1, 3)),
    ("01", "001", F(2, 7)),
    ("01", "010", F(9, 28)),
    ("", "01010", F(10, 31)),
])
def test_pi_value_examples(pre, per, value):
    assert pi_value(EvPeriodicWord.make(pre, per)) == value


def naive_expansion(x, limit=4000):
    """Digit-by-digit long division, the defining algorithm."""
    seen = {}
    digits = []
    cur = x
    while cur not in seen:
        seen[cur] = len(digits)
        cur *= 2
        d = 1 if cur >= 1 else 0
        digits.append(str(d))
        cur -= d
        assert len(digits) < limit
    k = seen[cur]
    return "".join(digits[:k]), "".join(digits[k:])


def test_binary_expansion_examples():
    assert binary_expansion(F(1, 3)) == EvPeriodicWord("", "01")
    assert binary_expansion(F(1, 2)) == EvPeriodicWord("1", "0")
    assert lex_min_expansion(F(1, 2)) == EvPeriodicWord("0", "1")
    assert binary_expansion(F(9, 28)) == EvPeriodicWord("01", "010")
    assert binary_expansion(F(0)) == EvPeriodicWord("", "0")


def test_binary_expansion_of_one():
    with pytest.raises(ValueError):
        binary_expansion(F(1))
    assert lex_min_expansion(F(1)) == EvPeriodicWord("", "1")
    assert pi_value(EvPeriodicWord("", "1")) == 1


def test_binary_expansion_matches_long_division():
    rng = random.Random(41)
    for _ in range(300):
        q = rng.randrange(2, 2000)
        p = rng.randrange(0, q)
        x = F(p, q)
        got = binary_expansion(x)
        pre, per = naive_expansion(x)
        want = EvPeriodicWord.make(pre, per) if (pre or per) else EvPeriodicWord("", "0")
        assert got == want, x


def test_round_trip_large_denominators():
    # 10^4 random reduced fractions with denominator up to 10^6
    rng = random.Random(7)
    for _ in range(10_000):
        q = rng.randrange(2, 10**6 + 1)
        p = rng.randrange(0, q)
        x = F(p, q)
        assert pi_value(binary_expansion(x)) == x


def test_upper_form_inverts_too():
    for x in [F(1, 2), F(3, 8), F(1, 4), F(7, 16)]:
        up = lex_min_expansion(x)
        assert up.period == "1"
        assert pi_value(up) == x
    # lex_min of a non-dyadic rational is just its expansion
    assert lex_min_expansion(F(1, 3)) == binary_expansion(F(1, 3))


def test_lex_extreme_expansions():
    # lex_max never ends (1)^inf, lex_min of a dyadic does
    assert lex_max_expansion(F(1, 2)) == EvPeriodicWord("1", "0")
    assert lex_min_expansion(F(1, 2)) == EvPeriodicWord("0", "1")
    assert lex_min_expansion(F(1)) == EvPeriodicWord("", "1")
    assert lex_max_expansion(F(0)) == EvPeriodicWord("", "0")


def test_shift_conjugacy():
    rng = random.Random(13)
    for _ in range(400):
        q = rng.randrange(2, 5000)
        p = rng.randrange(0, q)
        w = binary_expansion(F(p, q))
        assert pi_value(w.shift()) == doubling_map(F(p, q))


def test_lex_order_matches_value_order_on_canonical_words():
    rng = random.Random(99)
    for _ in range(400):
        x = F(rng.randrange(0, 997), 997)
        y = F(rng.randrange(0, 499), 499)
        wx, wy = binary_expansion(x), binary_expansion(y)
        cmp = lex_compare(wx, wy)
        assert cmp == (-1 if x < y else (0 if x == y else 1))


@pytest.mark.parametrize("x,y", [
    (F(1, 3), F(2, 3)),
    (F(2, 3), F(1, 3)),
    (F(9, 28), F(9, 14)),
    (F(0), F(0)),
])
def test_doubling_map(x, y):
    assert doubling_map(x) == y


def test_doubling_map_domain():
    with pytest.raises(ValueError):
        doubling_map(F(1))


def test_orbit_examples():
    res = orbit(F(1, 3))
    assert res.transient == ()
    assert set(res.cycle) == {F(1, 3), F(2, 3)}
    assert res.cycle_length == 2

    assert orbit(F(0)).cycle == (F(0),)

    res = orbit(F(2, 7))
    assert set(res.cycle) == {F(2, 7), F(4, 7), F(1, 7)}
    assert res.cycle_length == 3


def test_orbit_transient_then_cycle():
    res = orbit(F(1, 12))  # 1/12 -> 1/6 -> 1/3 -> 2/3 -> 1/3
    assert res.transient == (F(1, 12), F(1, 6))
    assert res.cycle == (F(1, 3), F(2, 3))
    assert doubling_map(res.transient[-1]) == res.cycle[0]


def test_orbit_budget():
    with pytest.raises(BudgetExceededError) as info:
        orbit(F(1, (1 << 40) - 1), max_steps=5)
    assert len(info.value.partial) == 6


def test_alpha_expansion_purely_periodic_and_orbit_closes():
    for q in range(3, 51):
        for p in range(1, (q - 1) // 2 + 1):
            if F(p, q).denominator != q:
                continue
            gap = gap_interval(cf_of_fraction(p, q))
            w = binary_expansion(gap.alpha)
            assert w.preperiod == ""
            assert q % len(w.period) == 0
            res = orbit(gap.alpha, max_steps=2 * q + 4)
            assert res.transient == ()
            assert q % res.cycle_length == 0
            x = gap.alpha
            for _ in range(q):
                x = doubling_map(x)
            assert x == gap.alpha


@pytest.mark.parametrize("odd", [
    pytest.param(10**30 + 1, id="period"),  # 2 has order about 3.8e16 modulo it
    pytest.param(3 * 2**98 - 1, id="trial-division"),  # no factor below 1.4e14
])
def test_expansion_budget_message_names_a_huge_denominator_by_size(odd):
    # 2^15000 has 4,516 digits, past the 4,300 that Python writes in decimal
    q = odd << 15000
    with pytest.raises(BudgetExceededError, match=f"denominator <{q.bit_length()}-bit integer>"):
        binary_expansion(F(1, q))


def test_format_short():
    assert format_short(F(2, 3)) == "2/3"
    assert format_short(F(5)) == "5"
    assert format_short(-(1 << 332)) == "-<333-bit integer>"
    assert format_short((1 << 332) - 1) == str((1 << 332) - 1)
    assert format_short(F(1, 1 << 400)) == "1/<401-bit integer>"


def test_fraction_io():
    assert parse_fraction("9/28") == F(9, 28)
    assert format_fraction(F(0)) == "0/1"
    with pytest.raises(ValueError):
        parse_fraction("nope")
