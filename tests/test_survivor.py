import math
import random
from fractions import Fraction

import pytest

from dbhole import survivor
from dbhole.automaton import Hole, SurvivorAutomaton, build_automaton
from dbhole.survivor import (
    Kind,
    _graph_sccs,
    _live_analysis,
    _perron_bracket,
    _primitive_necklaces,
    classify,
    cylinder_counts,
    entropy,
    enumerate_surviving_cycles,
    is_trap,
    kind_rank,
    locate_entropy_transition,
    sigma_n_dimension,
    sigma_n_matrix_word_count,
)

F = Fraction
GOLDEN = (1 + math.sqrt(5)) / 2


def test_classification_ladder():
    assert classify(Hole(F(3, 10), F(7, 10))).kind is Kind.FIXED_ONLY
    mid = classify(Hole(F(17, 50), F(33, 50)))
    assert mid.kind is Kind.COUNTABLE_CYCLES
    assert mid.cycles == ("01",)
    assert classify(Hole(F(21, 50), F(29, 50))).kind is Kind.POSITIVE_ENTROPY


def test_fixed_only_keeps_zero_loop():
    cls = classify(Hole(F(3, 10), F(7, 10)))
    assert cls.zero_loop
    assert cls.cycles == ()
    assert cls.entropy_lo == cls.entropy_hi == 0.0


def test_countable_zero_entropy_is_exact():
    cls = classify(Hole(F(1, 3), F(2, 3)))
    assert cls.kind is Kind.COUNTABLE_CYCLES
    assert cls.entropy_lo == 0.0 and cls.entropy_hi == 0.0
    assert cls.dimension == 0.0


def test_positive_entropy_gets_certified_bracket():
    cls = classify(Hole(F(21, 50), F(29, 50)))
    assert 0.0 < cls.entropy_lo <= cls.entropy_hi
    assert cls.entropy_hi - cls.entropy_lo <= 1e-10
    assert cls.dimension > 0


def test_zero_loop_survives_branching_component():
    # 2a >= b lets orbits jump across the hole, e.g. 1/4 -> 1/2 -> 0, which
    # pulls the 0-loop state into a branching component; the flag must hold
    cls = classify(Hole(F(3, 10), F(1, 2)))
    assert cls.kind is Kind.POSITIVE_ENTROPY
    assert cls.zero_loop


def test_hole_with_right_endpoint_one():
    # (1/2, 1): nothing but the fixed point (and the formal all-ones word)
    assert classify(Hole(F(1, 2), F(1))).kind is Kind.FIXED_ONLY
    # (2/3 + eps, 1): the 2-cycle fits below the hole
    cls = classify(Hole(F(7, 10), F(1)))
    assert cls.kind is not Kind.FIXED_ONLY


def test_entropy_of_golden_mean_graph():
    # two states: free --1--> free, free --0--> owe, owe --1--> free
    auto = SurvivorAutomaton.from_transitions([(1, 0), (-1, 0)])
    lo, hi = entropy(auto)
    assert hi - lo <= 1e-10
    assert abs((lo + hi) / 2 - math.log(GOLDEN)) < 1e-10


def test_entropy_of_full_shift_graph():
    auto = SurvivorAutomaton.from_transitions([(0, 0)])
    lo, hi = entropy(auto)
    assert abs(lo - math.log(2)) < 1e-12 and abs(hi - math.log(2)) < 1e-12


def test_entropy_requires_live_states():
    auto = SurvivorAutomaton.from_transitions([(-1, -1)])
    with pytest.raises(ValueError):
        entropy(auto)


def test_entropy_zero_for_pure_cycles():
    auto = build_automaton(Hole(F(17, 50), F(33, 50)))
    assert entropy(auto) == (0.0, 0.0)


def test_classify_runs_live_analysis_once(monkeypatch):
    calls = []

    def counted(auto):
        calls.append(auto)
        return _live_analysis(auto)

    monkeypatch.setattr(survivor, "_live_analysis", counted)
    assert classify(Hole(F(21, 50), F(29, 50))).kind is Kind.POSITIVE_ENTROPY
    assert len(calls) == 1


def dense_perron_bracket(rows, rel_tol, max_iter=200_000):
    """Reference: the Perron bracket on a dense adjacency matrix, as it was
    computed before successor lists replaced the rows."""
    n = len(rows)
    mat = [list(r) for r in rows]
    for i in range(n):
        mat[i][i] += 1
    sparse = [[(j, c) for j, c in enumerate(row) if c] for row in mat]
    x = [1] * n
    best_lo = Fraction(0)
    best_hi = None
    for _ in range(max_iter):
        y = [sum(c * x[j] for j, c in row) for row in sparse]
        lo = min(Fraction(y[i], x[i]) for i in range(n))
        hi = max(Fraction(y[i], x[i]) for i in range(n))
        if lo > best_lo:
            best_lo = lo
        if best_hi is None or hi < best_hi:
            best_hi = hi
        if best_hi - best_lo <= rel_tol * best_lo:
            return best_lo - 1, best_hi - 1
        x = y
        top = max(x)
        if top.bit_length() > 300:
            shift = top.bit_length() - 150
            x = [max(1, v >> shift) for v in x]
    raise AssertionError("reference bracket did not converge")


def dense_rows(succ):
    rows = [[0] * len(succ) for _ in succ]
    for i, targets in enumerate(succ):
        for j in targets:
            rows[i][j] += 1
    return rows


def test_perron_bracket_matches_dense_reference():
    rel = F(1e-10).limit_denominator(10**15) / 4
    rng = random.Random(11)
    graphs = []
    while len(graphs) < 30:
        qa, qb = rng.randrange(2, 41), rng.randrange(2, 41)
        a, b = F(rng.randrange(1, qa), qa), F(rng.randrange(1, qb), qb)
        if not a < b:
            continue
        auto = build_automaton(Hole(a, b))
        for comp in _live_analysis(auto)[0]:
            idx = {s: i for i, s in enumerate(comp)}
            graphs.append([[idx[t] for t in auto.transitions[s] if t in idx] for s in comp])
    # built automata never carry parallel edges (the 0- and 1-successors of
    # a state differ), so the repeated successor entries are written by hand
    parallel = [
        [[0, 0]],                    # full shift: two loops
        [[1, 1], [0]],
        [[0, 1], [0, 0]],
        [[1, 1], [2, 2], [0, 0]],    # a doubled 3-cycle
        [[0, 2], [0, 0], [1]],
    ]
    graphs += parallel
    graphs += [[[0, n]] + [[k - 1] for k in range(1, n + 1)] for n in range(1, 6)]
    for succ in graphs:
        assert _perron_bracket(succ, rel) == dense_perron_bracket(dense_rows(succ), rel), succ


def test_no_factor_00_hole_has_golden_entropy():
    # survivors of (0, 1/4): every tail is 0^inf or at least 1/4
    lo, hi = entropy(build_automaton(Hole(F(0), F(1, 4))))
    assert abs((lo + hi) / 2 - math.log(GOLDEN)) < 1e-10


def test_enumerate_surviving_cycles_examples():
    assert enumerate_surviving_cycles(Hole(F(17, 50), F(33, 50)), 10) == ["0", "01"]
    assert enumerate_surviving_cycles(Hole(F(2, 5), F(3, 5)), 4) == ["0", "01", "0110"]
    assert enumerate_surviving_cycles(Hole(F(3, 10), F(7, 10)), 10) == ["0"]


def test_enumerated_cycles_match_classification():
    rng = random.Random(20)
    for _ in range(40):
        qa = rng.randrange(2, 40)
        a = F(rng.randrange(1, qa), qa)
        b = 1 - a
        if a >= b:
            continue
        cls = classify(Hole(a, b))
        if cls.kind is not Kind.COUNTABLE_CYCLES:
            continue
        max_len = max(len(w) for w in cls.cycles)
        listed = [w for w in enumerate_surviving_cycles(Hole(a, b), max_len) if w != "0"]
        assert listed == sorted(cls.cycles, key=lambda w: (len(w), w))


def _mobius(n):
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def test_primitive_necklace_counts():
    counts = {}
    for w, rots in _primitive_necklaces(12):
        assert w == min(rots) and len(set(rots)) == len(w)
        counts[len(w)] = counts.get(len(w), 0) + 1
    for n in range(1, 13):
        expected = sum(_mobius(d) * 2 ** (n // d) for d in range(1, n + 1) if n % d == 0) // n
        assert counts[n] == expected - (n == 1)  # the all-ones word is skipped
    assert [w for w, _ in _primitive_necklaces(1)] == ["0"]


def test_graph_sccs_match_mutual_reachability():
    rng = random.Random(23)
    for n in range(1, 31):
        density = rng.random() * 3 / n
        succ = [[t for t in range(n) if rng.random() < density] for _ in range(n)]
        reach = []
        for s in range(n):
            seen, todo = {s}, [s]
            while todo:
                for t in succ[todo.pop()]:
                    if t not in seen:
                        seen.add(t)
                        todo.append(t)
            reach.append(seen)
        comps = _graph_sccs(succ)
        assert sorted(s for comp in comps for s in comp) == list(range(n))
        for comp in comps:
            expected = {t for t in reach[comp[0]] if comp[0] in reach[t]}
            assert set(comp) == expected


def test_symmetry_under_digit_swap():
    rng = random.Random(21)
    for _ in range(25):
        qa, qb = rng.randrange(3, 50), rng.randrange(3, 50)
        a, b = F(rng.randrange(1, qa), qa), F(rng.randrange(1, qb), qb)
        if a >= b:
            continue
        left = classify(Hole(a, b))
        right = classify(Hole(1 - b, 1 - a))
        assert left.kind == right.kind
        assert abs(left.entropy_lo - right.entropy_lo) <= 2e-10
        swapped = sorted(
            ("".join("1" if c == "0" else "0" for c in w) for w in left.cycles),
        )
        # swapped words are rotations of the mirror's cycle words
        def necklace(w):
            return min(w[i:] + w[:i] for i in range(len(w)))
        assert sorted(map(necklace, swapped)) == sorted(map(necklace, right.cycles))


def test_monotone_in_hole_containment():
    chain = [F(1, 4), F(1, 3), F(2, 5), F(21, 50), F(43, 100), F(9, 20)]
    kinds = [classify(Hole(a, 1 - a)).kind for a in chain]
    ranks = [kind_rank(k) for k in kinds]
    assert ranks == sorted(ranks)
    entropies = [classify(Hole(a, 1 - a)).entropy_hi for a in chain]
    for small, large in zip(entropies, entropies[1:]):
        assert large >= small - 1e-10


def test_cylinder_bracket_on_random_holes():
    rng = random.Random(22)
    for _ in range(30):
        qa, qb = rng.randrange(2, 65), rng.randrange(2, 65)
        a, b = F(rng.randrange(1, qa), qa), F(rng.randrange(1, qb), qb)
        if a >= b:
            continue
        hole = Hole(a, b)
        lower, upper = cylinder_counts(hole, 12)
        auto = build_automaton(hole)
        count = auto.count_paths(12)
        assert lower <= count <= upper, hole


def test_cylinder_counts_track_golden_mean():
    # survivors of (0, 1/4) have no factor 00 except boundary words
    hole = Hole(F(0), F(1, 4))
    auto = build_automaton(hole)
    fib = [1, 2]
    while len(fib) < 16:
        fib.append(fib[-1] + fib[-2])
    for m in (6, 10, 14):
        count = auto.count_paths(m)
        # all no-00 words survive; boundary-valued tails add a linear factor
        assert fib[m - 1] <= count <= (m + 1) * fib[m - 1]
    lo, hi = entropy(auto)
    growth = math.log(auto.count_paths(15) / auto.count_paths(14))
    assert abs(growth - (lo + hi) / 2) < 0.01


def test_is_trap_examples():
    report = is_trap(F(1, 3), F(2, 3), depth=20, tol=F(1, 1000))
    assert report.trapped is True
    assert report.residual_measure < F(1, 1000)
    assert report.escape_witness is None

    report = is_trap(F(2, 5), F(9, 20))
    assert report.trapped is False
    assert report.escape_witness == "01"

    # words 01 s_1 and 10 s_1 for the slope tuple (1): the interval [1/3, 3/5]
    report = is_trap(F(1, 3), F(3, 5), depth=24, tol=F(1, 1000))
    assert report.trapped is True


def test_is_trap_narrow_interval_has_cycle_witness():
    report = is_trap(F(9, 20), F(11, 20))
    assert report.trapped is False
    assert report.escape_witness is not None


def test_is_trap_interval_missing_one_half():
    report = is_trap(F(1, 10), F(2, 10), witness_max_len=1)
    assert report.trapped is False
    assert report.escape_witness == "1(0)"


def test_is_trap_rejects_degenerate_interval():
    with pytest.raises(ValueError):
        is_trap(F(1, 2), F(1, 2))
    with pytest.raises(ValueError):
        is_trap(F(0), F(1, 2))


def test_sigma_dimensions():
    assert abs(sigma_n_dimension(1) - math.log2(GOLDEN)) < 1e-9
    # real root of x^3 = x^2 + 1
    root = 1.0
    for _ in range(200):
        root = root - (root**3 - root**2 - 1) / (3 * root**2 - 2 * root)
    assert abs(sigma_n_dimension(2) - math.log2(root)) < 1e-9
    assert sigma_n_dimension(2) < sigma_n_dimension(1)


def brute_sigma_count(n, length):
    count = 0
    stack = [""]
    while stack:
        w = stack.pop()
        if len(w) == length:
            count += 1
            continue
        for c in "01":
            u = w + c
            ok = all(
                u[i] != "0" or all(u[i + j] == "1" for j in range(1, n + 1) if i + j < len(u))
                for i in range(len(u))
            )
            if ok:
                stack.append(u)
    return count


@pytest.mark.parametrize("n", [1, 2])
def test_sigma_counts_match_bruteforce(n):
    for length in (8, 12):
        assert sigma_n_matrix_word_count(n, length) == brute_sigma_count(n, length)


def test_locate_entropy_transition_coarse():
    lo, hi = locate_entropy_transition(4)
    assert hi - lo <= F(1, 16)
    assert F(3, 8) <= lo < hi <= F(7, 16)


def test_entropy_decays_toward_the_transition():
    # just above the transition parameter the survivor set keeps positive
    # entropy that shrinks as the hole parameter approaches it
    from dbhole.words import thue_morse

    tm30 = int(thue_morse(30), 2)
    below = classify(Hole(F(tm30, 1 << 30), 1 - F(tm30, 1 << 30)))
    assert below.kind is Kind.COUNTABLE_CYCLES
    values = []
    for bump in (1, 1 << 10, 1 << 16):
        a = F(tm30 + bump, 1 << 30)
        cls = classify(Hole(a, 1 - a))
        assert cls.kind is Kind.POSITIVE_ENTROPY
        values.append(cls.entropy_lo)
    assert 0 < values[0] < values[1] < values[2]
