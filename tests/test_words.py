import itertools
import random
import tracemalloc

import pytest
from fractions import Fraction

from dbhole.holes import sturmian_hole
from dbhole.words import (
    MAX_WORD_LENGTH,
    EvPeriodicWord,
    cf_of_fraction,
    characteristic_prefix,
    check_cf,
    check_word,
    convergents,
    cyclic_extremes,
    standard_words,
    thue_morse,
)
from oracles import EQUAL, GREATER, LESS, full_build_prefix, is_balanced, lex_compare


def test_standard_words_examples():
    assert standard_words((2,))[-1] == "001"
    assert standard_words((1, 2))[-1] == "01010"
    assert standard_words((1,))[-1] == "01"


def test_standard_words_start_with_markers():
    words = standard_words((3, 1, 2))
    assert words[0] == "1" and words[1] == "0"


@pytest.mark.parametrize("cf", [(2,), (1, 2), (3, 1, 2), (1, 1, 1, 1, 1), (2, 3, 2)])
def test_lengths_match_convergents(cf):
    words = standard_words(cf)
    for k, (p, q) in enumerate(convergents(cf)):
        assert len(words[k + 2]) == q
        assert words[k + 2].count("1") == p


@pytest.mark.parametrize("cf", [(2,), (1, 2), (3, 1, 2), (1, 1, 1, 1, 1)])
def test_prefix_property(cf):
    words = standard_words(cf)
    for prev, cur in zip(words[1:], words[2:]):
        assert cur.startswith(prev)


def test_empty_cf_rejected():
    with pytest.raises(ValueError):
        standard_words(())
    with pytest.raises(ValueError):
        check_cf((1, 0))


def test_characteristic_prefix_examples():
    assert characteristic_prefix((1,) * 7, 21) == "010010100100101001010"
    assert characteristic_prefix((3, 1), 3) == "000"
    assert characteristic_prefix((1,), 2) == "01"


def test_characteristic_prefix_extension_is_stable():
    short = characteristic_prefix((2, 1), 40, extend=True)
    long_ = characteristic_prefix((2, 1, 1, 1, 1, 1), 40, extend=True)
    assert short == long_


def test_characteristic_prefix_without_extension():
    with pytest.raises(ValueError):
        characteristic_prefix((1,), 10, extend=False)
    # reachable without extension
    assert characteristic_prefix((1, 1, 1, 1, 1, 1), 10, extend=False)


def test_characteristic_prefix_matches_the_full_build():
    rng = random.Random(29)
    checked = unreachable = 0
    while checked < 20_000:
        cf = tuple(rng.randrange(1, 18) if rng.random() < 0.5 else rng.randrange(1, 4)
                   for _ in range(rng.randrange(1, 7)))
        if convergents(cf)[-1][1] > MAX_WORD_LENGTH:  # the full build refuses these
            continue
        length, extend = rng.randrange(1, 401), rng.random() < 0.7
        expected = full_build_prefix(cf, length, extend)
        if expected is None:
            with pytest.raises(ValueError, match=f"prefix of length {length} unreachable"):
                characteristic_prefix(cf, length, extend)
            unreachable += 1
        else:
            assert characteristic_prefix(cf, length, extend) == expected
        checked += 1
    assert unreachable > 1000


def test_characteristic_prefix_costs_its_length_not_its_digits():
    # s_2 = s_1^a s_0 begins with a copies of s_1 = 01, so a = 10^9 is never multiplied out
    assert characteristic_prefix((1, 10**9), 5) == "01010"
    assert characteristic_prefix((10**9,), 5) == "00000"
    tracemalloc.start()
    try:
        hole = sturmian_hole((1, 10**9), 30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert hole[1:] == sturmian_hole((1, 10**6), 30)[1:]


@pytest.mark.parametrize("build, needs", [
    pytest.param(lambda: standard_words((1, 10**9)), "2000000001", id="standard-1-1000000000"),
    pytest.param(lambda: standard_words((2**400,)), "<401-bit integer>", id="standard-2^400"),
    pytest.param(lambda: standard_words((MAX_WORD_LENGTH,)), "1048577", id="standard-cap"),
    pytest.param(lambda: thue_morse(MAX_WORD_LENGTH + 1), "1048577", id="thue-morse"),
    pytest.param(lambda: characteristic_prefix((1,), MAX_WORD_LENGTH + 1), "1048577",
                 id="characteristic"),
])
def test_builders_refuse_a_word_past_the_cap_before_building_it(build, needs):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as refused:
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refused.value) == f"word needs {needs} symbols, above the cap of 1048576"
    assert peak < 1 << 16


def test_standard_words_admit_the_cap():
    assert len(standard_words((MAX_WORD_LENGTH - 1,))[-1]) == MAX_WORD_LENGTH


def brute_balanced(w):
    for n in range(1, len(w) + 1):
        ones = [w[i:i + n].count("1") for i in range(len(w) - n + 1)]
        if max(ones) - min(ones) > 1:
            return False
    return True


@pytest.mark.parametrize("w,expected", [("0110", True), ("0011", False), ("01001", True)])
def test_is_balanced_examples(w, expected):
    assert brute_balanced(w) is expected  # oracle agrees with the frozen value
    assert is_balanced(w) is expected


def test_is_balanced_matches_bruteforce_on_all_short_words():
    for n in range(1, 11):
        for bits in itertools.product("01", repeat=n):
            w = "".join(bits)
            assert is_balanced(w) == brute_balanced(w)


def test_lex_compare_examples():
    u = EvPeriodicWord.make("", "01")
    v = EvPeriodicWord.make("01", "10")
    assert lex_compare(u, v) == LESS

    words = standard_words((1, 1))
    s1, s2 = words[2], words[3]
    assert lex_compare(EvPeriodicWord.make("", s1 + s2),
                       EvPeriodicWord.make("", s2 + s1)) == GREATER

    assert lex_compare(EvPeriodicWord.make("", "010"),
                       EvPeriodicWord.make("01", "001")) == EQUAL


def test_lex_compare_agrees_with_string_prefix_order():
    rng = random.Random(3)

    def draw():
        while True:
            pre = "".join(rng.choice("01") for _ in range(rng.randrange(0, 4)))
            per = "".join(rng.choice("01") for _ in range(rng.randrange(1, 5)))
            if set(pre + per) != {"1"}:
                return EvPeriodicWord.make(pre, per)

    for _ in range(300):
        u, v = draw(), draw()
        got = lex_compare(u, v)
        a, b = u.prefix(64), v.prefix(64)
        expected = EQUAL if a == b else (LESS if a < b else GREATER)
        assert got == expected


@pytest.mark.parametrize("w,extremes", [
    ("001", ("001", "100")),
    ("01001", ("00101", "10100")),
    ("01", ("01", "10")),
    ("0101", ("0101", "1010")),
])
def test_cyclic_extremes(w, extremes):
    assert cyclic_extremes(w) == extremes


def test_cyclic_extremes_of_standard_word_moves_last_symbol():
    # standard words of odd index end in 01; their largest rotation moves the
    # final symbol to the front
    checked = 0
    for cf in [(1,), (2,), (1, 2, 2), (2, 1, 3), (1, 1, 1, 1, 1), (3, 2, 2)]:
        words = standard_words(cf)
        for n in range(1, len(cf) + 1, 2):
            w = words[n + 1]
            assert w.endswith("01")
            assert cyclic_extremes(w)[1] == w[-1] + w[:-1]
            checked += 1
    assert checked >= 8


@pytest.mark.parametrize("w", ["a01", "0a1", "01a", "0 1", "2", "01\n"])
def test_check_word_refuses_any_other_symbol(w):
    with pytest.raises(ValueError, match="not a 0-1 word"):
        check_word(w)


@pytest.mark.parametrize("w", ["", "0", "1", "0110"])
def test_check_word_passes_0_1_words(w):
    assert check_word(w) == w


def test_thue_morse():
    assert thue_morse(8) == "01101001"
    assert thue_morse(16) == "0110100110010110"
    assert thue_morse(1) == "0"


def test_cf_of_fraction_round_trip():
    for q in range(3, 60):
        for p in range(1, (q - 1) // 2 + 1):
            if Fraction(p, q).denominator != q:
                continue
            cf = cf_of_fraction(p, q)
            assert cf[-1] >= 2
            assert convergents(cf)[-1] == (p, q)


def test_cf_of_fraction_examples():
    assert cf_of_fraction(1, 3) == (2,)
    assert cf_of_fraction(2, 5) == (1, 2)


def test_evperiodic_canonicalization():
    assert EvPeriodicWord.make("01", "001") == EvPeriodicWord("", "010")
    assert EvPeriodicWord.make("01", "01001") == EvPeriodicWord("", "01010")
    assert EvPeriodicWord.make("", "0101") == EvPeriodicWord("", "01")
    assert EvPeriodicWord.make("01", "1") == EvPeriodicWord("1", "0")
    with pytest.raises(ValueError):
        EvPeriodicWord.make("", "1")


def test_evperiodic_prefix_and_shift():
    w = EvPeriodicWord.make("01", "001")
    assert w.prefix(8) == "01001001"
    assert str(w) == "(010)"
    assert w.shift() == EvPeriodicWord.make("1", "001")
