"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Every tolerance is pinned here; nothing is calibrated at runtime.
"""

import math
import random
import time
from fractions import Fraction

from dbhole.automaton import Hole, build_automaton
from dbhole.holes import catalog, gap_interval, sturmian_hole
from dbhole.holes import test_supercritical as run_supercritical
from dbhole.rationals import binary_expansion
from dbhole.survivor import (
    Kind,
    classify,
    cylinder_counts,
    enumerate_surviving_cycles,
    is_trap,
    kind_rank,
    locate_entropy_transition,
    sigma_n_dimension,
    sigma_n_matrix_word_count,
)
from dbhole.words import (
    EvPeriodicWord,
    cf_of_fraction,
    characteristic_prefix,
    convergents,
    standard_words,
    thue_morse,
)
from oracles import is_balanced, lex_compare, orbit

F = Fraction


def report(ok: bool, label: str) -> None:
    print(f"criterion {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, label


def gap_tuples(max_q):
    for q in range(3, max_q + 1):
        for p in range(1, (q - 1) // 2 + 1):
            if math.gcd(p, q) == 1:
                yield cf_of_fraction(p, q)


def test_criterion_1_exact_gap_intervals():
    g1 = gap_interval((2,))
    g2 = gap_interval((1, 2))
    ok = (g1.alpha, g1.beta) == (F(2, 7), F(9, 28)) and \
         (g2.alpha, g2.beta) == (F(10, 31), F(41, 124))
    report(ok, "1 exact gap intervals (2/7, 9/28) and (10/31, 41/124)")


def test_criterion_2_catalog_reproduction():
    entries = catalog(7)
    gap_small = {(e.left, e.right) for e in entries
                 if e.family in ("gap-alpha", "gap-beta") and e.parameter["q"] <= 5}
    expected = [
        (F(2, 7), F(15, 28)), (F(9, 28), F(4, 7)),
        (F(10, 31), F(71, 124)), (F(41, 124), F(18, 31)),
    ]
    holes = {(e.left, e.right) for e in entries}
    ok = all(h in gap_small for h in expected)
    ok = ok and (F(1, 3), F(7, 12)) in holes
    ok = ok and all((1 - r, 1 - l) in holes for l, r in expected + [(F(1, 3), F(7, 12))])
    report(ok, "2 catalog reproduces the reference holes and their mirrors")


def test_criterion_3_certification_under_a_minute():
    start = time.time()
    epsilon = F(1, 1024)
    entries = [e for e in catalog(20) if not isinstance(e.left, tuple)]
    ok = all(run_supercritical(e.left, e.right, epsilon).passed for e in entries)
    elapsed = time.time() - start
    ok = ok and elapsed < 60
    report(ok, f"3 all {len(entries)} rational entries q<=20 certified at 2^-10 "
               f"in {elapsed:.1f}s")


def test_criterion_4_fibonacci_hole():
    hole = sturmian_hole((1, 1, 1, 1, 1, 1, 1, 1), 30)
    left_mid = (hole.left[0] + hole.left[1]) / 2
    right_mid = (hole.right[0] + hole.right[1]) / 2
    ok = abs(float(left_mid) - 0.322549) < 1e-6
    ok = ok and abs(float(right_mid) - 0.572549) < 1e-6
    ok = ok and hole.right[0] - hole.left[0] == F(1, 4)
    report(ok, "4 Fibonacci hole matches (0.322549, 0.572549) to 1e-6, width 1/4")


def test_criterion_5_transition_bracket():
    start = time.time()
    lo, hi = locate_entropy_transition(16)
    elapsed = time.time() - start
    tm = thue_morse(80)
    tm_lo = F(int(tm, 2), 1 << 80)
    tm_hi = tm_lo + F(1, 1 << 80)
    ok = hi - lo <= F(1, 1 << 16)
    ok = ok and lo <= tm_lo and tm_hi <= hi
    ok = ok and elapsed < 300
    report(ok, f"5 transition bracket [{lo}, {hi}] of width 2^-16 contains the "
               f"Thue-Morse value in {elapsed:.2f}s")


def test_criterion_6_classification_ladder():
    c1 = classify(Hole(F(3, 10), F(7, 10)))
    c2 = classify(Hole(F(17, 50), F(33, 50)))
    c3 = classify(Hole(F(21, 50), F(29, 50)))
    cycles = enumerate_surviving_cycles(Hole(F(2, 5), F(3, 5)), 4)
    ok = c1.kind is Kind.FIXED_ONLY
    ok = ok and c2.kind is Kind.COUNTABLE_CYCLES and c2.cycles == ("01",)
    ok = ok and cycles == ["0", "01", "0110"]
    ok = ok and c3.kind is Kind.POSITIVE_ENTROPY
    report(ok, "6 classification ladder FixedOnly / CountableCycles(01) / "
               "{0,01,0110} / PositiveEntropy")


def test_criterion_7_trap():
    result = is_trap(F(1, 3), F(2, 3), depth=20, tol=F(1, 1000))
    ok = result.trapped is True and result.residual_measure < F(1, 1000)
    report(ok, "7 [1/3, 2/3] certified as a trap at depth 20, tol 1e-3")


def test_criterion_8_cylinder_oracle_brackets_automaton():
    rng = random.Random(2024)
    depth = 14
    holes = []
    while len(holes) < 100:
        qa, qb = rng.randrange(2, 65), rng.randrange(2, 65)
        a, b = F(rng.randrange(1, qa), qa), F(rng.randrange(1, qb), qb)
        if a < b:
            holes.append(Hole(a, b))
    violations = 0
    for hole in holes:
        lower, upper = cylinder_counts(hole, depth)
        count = build_automaton(hole).count_paths(depth)
        if not lower <= count <= upper:
            violations += 1
    report(violations == 0, "8 automaton path counts inside cylinder brackets "
                            "for 100 random holes at depth 14")


def test_criterion_9_property_suites():
    # word lemmas, q <= 50
    for cf in gap_tuples(50):
        words = standard_words(cf)
        convs = convergents(cf)
        for k, (p, q) in enumerate(convs):
            assert len(words[k + 2]) == q and words[k + 2].count("1") == p
        for prev, cur in zip(words[1:], words[2:]):
            assert cur.startswith(prev)
        for n in range(1, len(cf) + 1):
            u, v = words[n], words[n + 1]  # s_{n-1}, s_n
            order = lex_compare(EvPeriodicWord.make("", u + v),
                                EvPeriodicWord.make("", v + u))
            assert order == (-1 if n % 2 == 1 else 1), (cf, n)
        assert is_balanced(words[-1])
    print("criterion 9a: PASS word lemmas over all tuples with q <= 50")

    # characteristic prefixes are balanced and consistent with extension
    for cf in [(1, 1, 1), (2, 2), (3, 1, 2), (1, 2, 1, 2)]:
        prefix = characteristic_prefix(cf, 60)
        assert is_balanced(prefix)
        assert characteristic_prefix(cf + (1, 1), 60) == prefix
    print("criterion 9b: PASS characteristic prefixes balanced and stable")

    # lexicographic order matches value order on canonical expansions
    rng = random.Random(31)
    values = [F(rng.randrange(0, 3000), 3000) for _ in range(200)]
    for x, y in zip(values, values[1:]):
        cmp = lex_compare(binary_expansion(x), binary_expansion(y))
        assert cmp == (-1 if x < y else (0 if x == y else 1))
    print("criterion 9c: PASS order bridge between words and values")

    # alpha expansions purely periodic, orbit closes after q steps, and the
    # two hole-closing endpoints code rotations of one another (q <= 50)
    for cf in gap_tuples(50):
        gap = gap_interval(cf)
        w = binary_expansion(gap.alpha)
        wg = binary_expansion(gap.gamma)
        assert w.preperiod == "" and gap.q % len(w.period) == 0
        assert wg.preperiod == "" and gap.q % len(wg.period) == 0
        pa = w.period * (gap.q // len(w.period))
        pg = wg.period * (gap.q // len(wg.period))
        assert pg in pa + pa
        res = orbit(gap.alpha, max_steps=2 * gap.q + 4)
        assert res.transient == () and gap.q % res.cycle_length == 0
    print("criterion 9d: PASS alpha/gamma expansions purely periodic rotations, "
          "period | q")

    # orbit exclusion and gap-hole classification (q <= 30)
    for cf in gap_tuples(30):
        gap = gap_interval(cf)
        for point in orbit(gap.alpha, max_steps=2 * gap.q + 4).cycle:
            assert not gap.alpha < point < gap.gamma
        cls = classify(Hole(gap.alpha, gap.gamma))
        assert cls.kind is Kind.COUNTABLE_CYCLES
        assert len(cls.cycles) == 1
        coding = binary_expansion(gap.alpha).period
        word = cls.cycles[0]
        reps = len(word) // len(coding)
        assert word in coding * (reps + 2)  # rotation class of alpha's coding
    print("criterion 9e: PASS orbit exclusion and single-cycle classification, q <= 30")

    # mirror symmetry
    rng = random.Random(32)
    for _ in range(20):
        qa, qb = rng.randrange(3, 40), rng.randrange(3, 40)
        a, b = F(rng.randrange(1, qa), qa), F(rng.randrange(1, qb), qb)
        if a >= b:
            continue
        left, right = classify(Hole(a, b)), classify(Hole(1 - b, 1 - a))
        assert left.kind == right.kind
        assert abs(left.entropy_lo - right.entropy_lo) <= 2e-10
        assert abs(left.entropy_hi - right.entropy_hi) <= 2e-10
    print("criterion 9f: PASS mirror symmetry")

    # containment monotonicity along a chain of shrinking symmetric holes
    chain = [F(1, 4), F(3, 10), F(1, 3), F(2, 5), F(41, 100), F(21, 50), F(9, 20)]
    ranks = [kind_rank(classify(Hole(a, 1 - a)).kind) for a in chain]
    assert ranks == sorted(ranks)
    tops = [classify(Hole(a, 1 - a)).entropy_hi for a in chain]
    assert all(later >= earlier - 1e-10 for earlier, later in zip(tops, tops[1:]))
    print("criterion 9g: PASS classification monotone under hole containment")

    report(True, "9 property suites")


def test_criterion_10_sigma_dimensions():
    phi = (1 + math.sqrt(5)) / 2
    ok = abs(sigma_n_dimension(1) - math.log2(phi)) < 1e-9
    root = 1.5
    for _ in range(100):
        root -= (root**3 - root**2 - 1) / (3 * root**2 - 2 * root)
    ok = ok and abs(sigma_n_dimension(2) - math.log2(root)) < 1e-9

    def brute_count(n, length):
        total = 0
        stack = [""]
        while stack:
            w = stack.pop()
            if len(w) == length:
                total += 1
                continue
            for c in "01":
                u = w + c
                if all(u[i] != "0"
                       or all(u[i + j] == "1" for j in range(1, n + 1) if i + j < len(u))
                       for i in range(max(0, len(u) - n - 1), len(u))):
                    stack.append(u)
        return total

    for n in (1, 2):
        ok = ok and brute_count(n, 24) == sigma_n_matrix_word_count(n, 24)
    report(ok, "10 sigma dimensions match the golden mean and x^3 = x^2 + 1 "
               "roots to 1e-9, counts confirmed at length 24")
