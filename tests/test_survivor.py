import contextlib
import math
import random
import re
import time
from fractions import Fraction

import pytest

from dbhole import automaton, survivor
from dbhole.automaton import Hole, SurvivorAutomaton, build_automaton
from dbhole.holes import _endpoint_bracket, catalog
from dbhole.rationals import BudgetExceededError
from dbhole.survivor import (
    Kind,
    _bracket_key,
    _graph_sccs,
    _perron_bracket,
    _cycles_avoiding,
    _zero_max_rotation,
    classify,
    cylinder_counts,
    entropy,
    enumerate_surviving_cycles,
    is_trap,
    locate_entropy_transition,
    sigma_n_dimension,
)
from oracles import (
    brute_sigma_count,
    dense_perron_bracket,
    dense_rows,
    kneading_entropy,
    pairwise_gap_successors,
    primitive_necklaces,
    reference_is_trap,
    reference_zero_max_rotation,
    rome_bracket,
    sigma_n_chain,
    trap_by_automaton,
    transfer_matrix_count,
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


def test_classify_runs_tarjan_once(monkeypatch):
    calls = []
    in_entropy = []
    sccs = automaton._graph_sccs

    def counted(succ):
        calls.append(len(succ))
        return sccs(succ)

    def entropy_counted(auto, **kwargs):
        before = len(calls)
        result = entropy(auto, **kwargs)
        in_entropy.append(len(calls) - before)
        return result

    monkeypatch.setattr(automaton, "_graph_sccs", counted)
    monkeypatch.setattr(survivor, "_graph_sccs", counted)
    monkeypatch.setattr(survivor, "entropy", entropy_counted)
    assert classify(Hole(F(21, 50), F(29, 50))).kind is Kind.POSITIVE_ENTROPY
    assert len(calls) == 1
    assert in_entropy == [0]


def _positive_entropy_holes(seed, count):
    """Distinct PositiveEntropy holes, none its own mirror or another's."""
    rng = random.Random(seed)
    holes, keys = [], set()
    while len(holes) < count:
        q = rng.randrange(5, 60)
        k = rng.randrange(1, q - 1)
        hole = Hole(F(k, q), F(k + 1, q))
        key = min(hole, hole.mirror())
        if (key not in keys and hole != hole.mirror()
                and not all(is_cycle for _, is_cycle in build_automaton(hole).components)):
            holes.append(hole)
            keys.add(key)
    return holes


@pytest.fixture
def entropy_calls(monkeypatch):
    """The automata that classify() hands to entropy(), in call order."""
    calls = []

    def counted(auto):
        calls.append(auto)
        return entropy(auto)

    monkeypatch.setattr(survivor, "entropy", counted)
    return calls


def test_mirror_pair_pays_for_one_bracket(entropy_calls):
    eps = F(1, 1024)
    entry = next(e for e in catalog(8) if e.family == "gap-alpha" and e.right - e.left > 2 * eps)
    mirror = entry.mirror()
    pair = (Hole(entry.left + eps, entry.right - eps), Hole(mirror.left + eps, mirror.right - eps))
    assert pair[1] == pair[0].mirror() != pair[0]
    for hole, other in [pair] + [(h, h.mirror()) for h in _positive_entropy_holes(20, 4)]:
        entropy_calls.clear()
        cls, mirrored = classify(hole), classify(other)
        assert cls.kind is mirrored.kind is Kind.POSITIVE_ENTROPY
        assert len(entropy_calls) == 1
        assert (mirrored.entropy_lo, mirrored.entropy_hi) == (cls.entropy_lo, cls.entropy_hi)


def test_perron_budget_failure_is_not_memoised(monkeypatch, entropy_calls):
    hole = Hole(F(21, 50), F(29, 50))
    with monkeypatch.context() as budget:
        budget.setattr(survivor, "PERRON_WORK_BUDGET", 100)
        for _ in range(2):
            with pytest.raises(BudgetExceededError):
                classify(hole)
    assert len(entropy_calls) == 2 and not survivor._brackets
    cls = classify(hole)
    assert len(entropy_calls) == 3
    assert cls.kind is Kind.POSITIVE_ENTROPY and 0 < cls.entropy_lo <= cls.entropy_hi


def test_bracket_memo_stops_storing_at_its_bound(monkeypatch, entropy_calls):
    monkeypatch.setattr(survivor, "BRACKET_CACHE_SIZE", 4)
    holes = _positive_entropy_holes(7, 6)
    brackets = [classify(hole)[3:] for hole in holes]
    assert len(entropy_calls) == 6
    # a full memo stores nothing more, and drops nothing it holds
    assert list(survivor._brackets) == [min(h, h.mirror()) for h in holes[:4]]
    # the four stored mirrors are served, the two others pay for their own
    assert [classify(hole.mirror())[3:] for hole in holes] == brackets
    assert len(entropy_calls) == 8


def _symmetric_holes_and_neighbours():
    """Symmetric holes (a, 1 - a), dyadic a and a = j/q, and each with one end moved by 2^-k."""
    for a in [F(j, 2**k) for k in range(1, 8) for j in range(1, 2**(k - 1))] + [
            F(j, q) for q in (3, 7, 10, 31, 1001) for j in range(1, (q + 1) // 2)]:
        yield Hole(a, 1 - a)
        for k in (3, 10, 60):
            eps = F(1, 2**k)
            for lo, hi in ((a - eps, 1 - a), (a + eps, 1 - a), (a, 1 - a - eps), (a, 1 - a + eps)):
                if 0 <= lo < hi <= 1:
                    yield Hole(lo, hi)


def _seeded_holes(seed, count, bits):
    rng = random.Random(seed)
    for _ in range(count):
        q1, q2 = rng.randrange(1, 2**bits) + 1, rng.randrange(1, 2**bits) + 1
        a, b = sorted((F(rng.randrange(q1 + 1), q1), F(rng.randrange(q2 + 1), q2)))
        if a < b:
            yield Hole(a, b)


@pytest.mark.parametrize("holes, at_least", [
    (_symmetric_holes_and_neighbours, 500),
    (lambda: _seeded_holes(27, 1500, 12), 1000),
    (lambda: _seeded_holes(28, 200, 200), 150),  # endpoints with 200-bit denominators
    (lambda: [Hole(0, 1), Hole(0, F(1, 2**200)), Hole(1 - F(1, 2**200), 1)], 3),
], ids=["symmetric-and-neighbours", "seeded", "200-bit", "ends"])
def test_bracket_key_is_the_smaller_of_hole_and_mirror(holes, at_least):
    mirrored = []
    for hole in holes():
        key = _bracket_key(hole)
        assert key == min(hole, hole.mirror()) and type(key) is Hole
        # a symmetric hole is its own mirror and keys as itself
        assert key is hole or hole.a + hole.b > 1
        mirrored.append(key is not hole)
    assert len(mirrored) >= at_least and any(mirrored) and not all(mirrored)


def _branching_graphs(auto):
    """Successor lists of the automaton's branching components, each
    renumbered from 0."""
    for states, is_cycle in auto.components:
        if not is_cycle:
            idx = {s: i for i, s in enumerate(states)}
            yield [[idx[t] for t in auto.transitions[s] if t in idx] for s in states]


def test_perron_bracket_matches_dense_reference():
    rel = survivor.ENTROPY_WIDTH / 4
    rng = random.Random(11)
    graphs = []
    while len(graphs) < 30:
        qa, qb = rng.randrange(2, 41), rng.randrange(2, 41)
        a, b = F(rng.randrange(1, qa), qa), F(rng.randrange(1, qb), qb)
        if not a < b:
            continue
        graphs += _branching_graphs(build_automaton(Hole(a, b)))
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
        assert _perron_bracket(succ) == dense_perron_bracket(dense_rows(succ), rel), succ


def test_perron_bracket_overlaps_rome_certificate():
    # the rome certificate shares nothing with power iteration but the graph;
    # one hole of each catalog mirror pair (the mirror builds the same graph,
    # relabelled), thin holes with components of 500 to 1,000 states, the
    # sigma_n chains and random holes
    eps = F(1, 2**10)
    holes = {Hole(F(170, 509), F(171, 509)), Hole(F(341, 1019), F(342, 1019))}
    for e in catalog(12):
        hole = Hole(_endpoint_bracket(e.left)[1] + eps, _endpoint_bracket(e.right)[0] - eps)
        holes.add(min(hole, hole.mirror()))
    rng = random.Random(13)
    while len(holes) < 150:
        qa, qb = rng.randrange(2, 400), rng.randrange(2, 400)
        a, b = F(rng.randrange(1, qa), qa), F(rng.randrange(1, qb), qb)
        if a < b:
            holes.add(Hole(a, b))
    autos = [build_automaton(hole) for hole in sorted(holes)]
    autos += [sigma_n_chain(n) for n in range(1, 9)]
    graphs = [succ for auto in autos for succ in _branching_graphs(auto)]
    assert len(graphs) > 100 and max(map(len, graphs)) > 1000
    for succ in graphs:
        lo, hi = rome_bracket(succ)
        assert hi - lo <= survivor.ENTROPY_WIDTH, succ
        perron_lo, perron_hi = _perron_bracket(succ)
        assert max(lo, perron_lo) <= min(hi, perron_hi), succ


def test_perron_work_budget_raises_with_best_bracket(monkeypatch):
    # a bisection hole near a*, as the ladder workload classifies, with one
    # branching component of 24 states
    a = F(13517, 32768)
    auto = build_automaton(Hole(a, 1 - a))
    (comp,) = [states for states, is_cycle in auto.components if not is_cycle]
    assert len(comp) == 24
    monkeypatch.setattr(survivor, "PERRON_WORK_BUDGET", 2_000)
    with pytest.raises(BudgetExceededError) as info:
        entropy(auto)
    lo, hi = info.value.partial
    assert type(lo) is type(hi) is Fraction and 1 < lo <= hi
    idx = {s: i for i, s in enumerate(comp)}
    succ = [[idx[t] for t in auto.transitions[s] if t in idx] for s in comp]
    ref_lo, ref_hi = dense_perron_bracket(dense_rows(succ), F(1, 10**12))
    assert lo <= ref_hi and ref_lo <= hi


def test_entropy_matches_kneading_invariant():
    rng = random.Random(61)
    holes = []
    while len(holes) < 120:
        qa, qb = rng.randrange(3, 81), rng.randrange(3, 81)
        a, b = F(rng.randrange(1, qa), qa), F(rng.randrange(1, qb), qb)
        if F(1, 4) < a < F(1, 2) < b < F(3, 4):
            holes.append(Hole(a, b))
    eps = F(1, 1024)
    inner = [Hole(e.left + eps, e.right - eps) for e in catalog(12)
             if not isinstance(e.left, tuple) and e.left + eps < F(1, 2) < e.right - eps]
    assert len(inner) > 50
    kinds = set()
    for hole in holes + inner:
        c = classify(hole)
        kinds.add(c.kind)
        assert abs(kneading_entropy(hole) - (c.entropy_lo + c.entropy_hi) / 2) < 1e-9, hole
    assert kinds == set(Kind)

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
    for w, rots in primitive_necklaces(12):
        assert w == min(rots) and len(set(rots)) == len(w)
        counts[len(w)] = counts.get(len(w), 0) + 1
    scanned = {}
    for w in _cycles_avoiding(lambda x: False, 12):
        scanned[len(w)] = scanned.get(len(w), 0) + 1
    for n in range(1, 13):
        expected = sum(_mobius(d) * 2 ** (n // d) for d in range(1, n + 1) if n % d == 0) // n
        assert counts[n] == expected
        assert scanned[n] == expected - (n == 1)  # the all-ones word is skipped
    assert [w for w, _ in primitive_necklaces(1)] == ["0", "1"]
    assert list(_cycles_avoiding(lambda x: False, 1)) == ["0"]


def test_cycle_scan_matches_necklace_filter():
    # the scan keeps every cycle when no point is inside; the brute-force
    # filter builds every rotation of all 2^L words
    reference = [reference_zero_max_rotation(w) for w, _ in primitive_necklaces(14) if w != "1"]
    for max_len in range(15):
        want = [w for w in reference if len(w) <= max_len]
        assert list(_cycles_avoiding(lambda x: False, max_len)) == want, max_len


def test_graph_sccs_match_mutual_reachability():
    rng = random.Random(23)
    graphs = []
    for n in range(1, 31):
        density = rng.random() * 3 / n
        # a negative entry is no edge
        graphs.append([[t if rng.random() < 0.8 else -1
                        for t in range(n) if rng.random() < density] for _ in range(n)])
    # a repeated successor entry, as in the trap gap graph, is a doubled edge
    doubled = [[[0, 0]], [[1, 1], [0]], [[1], [2, 2], [0]], [[1, -1, 1], [0]]]
    for succ in doubled:
        assert [is_cycle for _, is_cycle in _graph_sccs(succ)[0]] == [False], succ
    graphs += doubled
    rng = random.Random(24)
    for n in range(1, 21):
        density = rng.random() * 2 / n
        graphs.append([[t for t in range(n) if rng.random() < density
                        for _ in range(rng.choice((1, 1, 2)))] for _ in range(n)])
    shapes = set()
    for succ in graphs:
        n = len(succ)
        # reach[s]: nodes at the end of a path of one or more edges from s
        reach = []
        for s in range(n):
            seen, todo = set(), [s]
            while todo:
                for t in succ[todo.pop()]:
                    if t >= 0 and t not in seen:
                        seen.add(t)
                        todo.append(t)
            reach.append(seen)
        cyclic = [s for s in range(n) if s in reach[s]]
        pairs, live = _graph_sccs(succ)
        comps = [comp for comp, _ in pairs]
        assert sorted(s for comp in comps for s in comp) == cyclic
        for comp in comps:
            assert set(comp) == {t for t in reach[comp[0]] if comp[0] in reach[t]}
        for i, comp in enumerate(comps):  # reverse topological order
            assert not any(t in reach[comp[0]] for later in comps[i + 1:] for t in later)
        assert live == [any(t in reach[t] for t in reach[s]) for s in range(n)]
        for comp, is_cycle in pairs:
            inside = [[t for t in succ[s] if t in comp] for s in comp]
            assert is_cycle == all(len(ts) == 1 for ts in inside), succ
            if is_cycle:  # each state's successor is the next one, wrapping round
                assert inside == [[t] for t in comp[1:] + comp[:1]], succ
            shapes.add(is_cycle)
    assert shapes == {True, False}


def test_zero_max_rotation_matches_reference():
    words = [r for w, rots in primitive_necklaces(12) if w != "1" for r in rots]
    assert len(words) == 8031
    for w in words:
        assert _zero_max_rotation(w) == reference_zero_max_rotation(w), w


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
    ranks = [list(Kind).index(k) for k in kinds]
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


def test_trap_certificate_refuses_a_surviving_gap_cycle(monkeypatch):
    # the cycle 01 (1/3, 2/3) avoids [7/20, 9/14]; with no witness search the
    # residual drops below tol, and only the fixed point of the gap cycle's
    # return map, a point of that cycle, keeps the certificate from passing
    with monkeypatch.context() as budget:
        budget.setattr(survivor, "TRAP_WITNESS_MAX_LEN", 0)
        for depth in (4, 12):
            with pytest.raises(BudgetExceededError) as exc:
                is_trap(F(7, 20), F(9, 14), depth=depth, tol=F(1, 10))
            spent = re.fullmatch(rf"trap search for \[7/20, 9/14\] undecided after {depth} "
                                 r"rounds; residual (\S+), tol 1/10", str(exc.value))
            assert spent and F(spent[1]) < F(1, 10)
    assert is_trap(F(7, 20), F(9, 14)).escape_witness == "01"


def test_trap_certificate_overlaps_match_the_pairwise_scan(monkeypatch):
    # record each gap list the certificate gets and the successor lists it
    # hands to Tarjan, then rebuild those lists by the pairwise scan
    calls = []
    certify, sccs = survivor._certify_trapped, survivor._graph_sccs

    def recording_certify(gaps):
        calls.append({"gaps": gaps})
        calls[-1]["verdict"] = certify(gaps)
        return calls[-1]["verdict"]

    def recording_sccs(succ):
        calls[-1]["succ"] = [list(js) for js in succ]
        return sccs(succ)

    monkeypatch.setattr(survivor, "_certify_trapped", recording_certify)
    monkeypatch.setattr(survivor, "_graph_sccs", recording_sccs)
    # one hole of each mirror pair of catalog(6) that is_trap takes: all traps
    for c, d in sorted({(e.left, e.right) for e in catalog(6) if isinstance(e.left, F)
                        and isinstance(e.right, F) and 0 < e.left < e.right <= 1 - e.left}):
        assert is_trap(c, d).trapped
    # with no witness search, seeded intervals around 1/2 reach certificates
    # that refuse, as do the two of test_trap_certificate_refuses_a_surviving_gap_cycle
    monkeypatch.setattr(survivor, "TRAP_WITNESS_MAX_LEN", 0)
    rng = random.Random(1)
    for _ in range(30):
        q = rng.randrange(8, 100)
        c = F(rng.randrange(q // 4 + 1, (q + 1) // 2), q)
        d = F(rng.randrange(q // 2 + 1, 3 * q // 4), q)
        with contextlib.suppress(BudgetExceededError):
            is_trap(c, d, depth=6, tol=F(1, 2))
    for depth in (4, 12):
        with pytest.raises(BudgetExceededError):
            is_trap(F(7, 20), F(9, 14), depth=depth, tol=F(1, 10))
    for call in calls:
        assert call["succ"] == pairwise_gap_successors(call["gaps"])
    verdicts = [call["verdict"] for call in calls]
    assert verdicts.count(True) >= 19 and verdicts.count(False) >= 60
    assert max(len(call["gaps"]) for call in calls) >= 100


def test_is_trap_interval_missing_one_half(monkeypatch):
    monkeypatch.setattr(survivor, "TRAP_WITNESS_MAX_LEN", 1)
    report = is_trap(F(1, 10), F(2, 10))
    assert report.trapped is False
    assert report.escape_witness == "1(0)"


def test_is_trap_rejects_degenerate_interval():
    with pytest.raises(ValueError):
        is_trap(F(1, 2), F(1, 2))
    with pytest.raises(ValueError):
        is_trap(F(0), F(1, 2))


def test_is_trap_rejects_negative_depth_and_nonpositive_tol(monkeypatch):
    with pytest.raises(ValueError):
        is_trap(F(1, 3), F(2, 3), depth=-1)
    for tol in (0, -1):
        with pytest.raises(ValueError):
            is_trap(F(1, 3), F(2, 3), tol=tol)
    # zero is allowed: no witness search, or a stop after the first round
    assert is_trap(F(9, 20), F(11, 20), depth=0).escape_witness is not None
    with monkeypatch.context() as budget:
        budget.setattr(survivor, "TRAP_WITNESS_MAX_LEN", 0)
        with pytest.raises(BudgetExceededError, match=r"^trap search for \[9/20, 11/20\] "
                           r"undecided after 0 rounds; residual 9/10, tol 1/1000000$") as exc:
            is_trap(F(9, 20), F(11, 20), depth=0)
        assert exc.value.partial is None
    with monkeypatch.context() as budget:
        budget.setattr(survivor, "MAX_TRAP_INTERVALS", 0)
        with pytest.raises(BudgetExceededError, match=r"^trap search for \[1/3, 2/3\] has "
                           r"\d+ gaps in round 1, above the gap budget of 1; residual 2/3$"):
            is_trap(F(1, 3), F(2, 3))
    # depth 0 runs the witness search alone
    with pytest.raises(BudgetExceededError, match=r"after 0 rounds; residual 2/3,"):
        is_trap(F(1, 3), F(2, 3), depth=0)
    assert is_trap(F(2, 5), F(9, 20), depth=0).escape_witness == "01"


def test_is_trap_matches_union_reference(monkeypatch):
    rng = random.Random(31)
    verdicts = {True: 0, False: 0, None: 0}
    cutoffs = []
    i = 0
    while sum(verdicts.values()) < 520:
        i += 1
        # most intervals straddle 1/2, and the widest of them are traps
        width = F(rng.randrange(1, 400), 1000)
        q = rng.choice((20, 31, 63, 64, 97, 128, 1000))
        c = F(rng.randrange(max(1, round((F(1, 2) - width) * q)), q // 2 + 1), q)
        d = min(c + width, F(q - 1, q))
        if i % 8 == 0:
            c, d = sorted((F(rng.randrange(1, q), q), F(rng.randrange(1, q), q)))
        elif i % 8 == 1:
            # 2d - 1 = c: a preimage of the gap (0, c) ends exactly at d
            d = F(rng.randrange(q // 2 + 1, q), q)
            c = 2 * d - 1
        elif i % 8 == 2:
            # 2c = d: a preimage of the gap (d, 1) starts exactly at c
            c = F(rng.randrange(1, q // 2), q)
            d = 2 * c
        if not 0 < c < d < 1:
            continue
        kwargs = dict(depth=rng.randrange(0, 13), tol=F(1, rng.choice((10, 100, 1000, 10**4))))
        budgets = dict(witness_max_len=rng.randrange(0, 7), max_intervals=rng.randrange(1, 60))
        cut = len(cutoffs)
        want = reference_is_trap(c, d, cutoffs=cutoffs, **kwargs, **budgets)
        monkeypatch.setattr(survivor, "TRAP_WITNESS_MAX_LEN", budgets["witness_max_len"])
        monkeypatch.setattr(survivor, "MAX_TRAP_INTERVALS", budgets["max_intervals"])
        verdicts[want.trapped] += 1
        if want.trapped is not None:
            assert is_trap(c, d, **kwargs) == want, (c, d, kwargs, budgets)
            continue
        # the reference's undecided run is a raise naming the budget it spent
        spent = (rf"has \d+ gaps in round \d+, above the gap budget of "
                 rf"{budgets['max_intervals'] + 1}; residual {want.residual_measure}"
                 if len(cutoffs) > cut else
                 rf"undecided after {kwargs['depth']} rounds; residual {want.residual_measure}, "
                 rf"tol {kwargs['tol']}")
        with pytest.raises(BudgetExceededError,
                           match=rf"^trap search for {re.escape(f'[{c}, {d}]')} {spent}$") as exc:
            is_trap(c, d, **kwargs)
        assert exc.value.partial is None, (c, d, kwargs, budgets)
    assert min(verdicts.values()) >= 20, verdicts
    # both budgets end runs: the gap count and the rounds
    assert len(cutoffs) >= 20 and verdicts[None] - len(cutoffs) >= 20


def test_is_trap_long_period_endpoint_is_certified():
    # the endpoint 3/5 + 1/40038007 has a binary period past MAX_PERIOD, so
    # no automaton can be built for it; the gap certificate needs none
    start = time.perf_counter()
    assert is_trap(F(1, 3), F(3, 5) + F(1, 40038007)).trapped is True
    assert time.perf_counter() - start < 1


def test_is_trap_agrees_with_automaton_criterion(monkeypatch):
    monkeypatch.setattr(survivor, "MAX_TRAP_INTERVALS", 2000)
    monkeypatch.setattr(survivor, "TRAP_WITNESS_MAX_LEN", 8)
    rng = random.Random(32)
    decided = {True: 0, False: 0}
    for _ in range(400):
        # c <= 1/2 <= d, as a trap needs, apart from one pair in eight
        qc, qd = rng.randrange(2, 129), rng.randrange(2, 129)
        c = F(rng.randrange(1, qc // 2 + 1), qc)
        d = F(rng.randrange((qd + 1) // 2, qd), qd)
        if rng.random() < 1 / 8:
            c, d = F(rng.randrange(1, qc), qc), F(rng.randrange(1, qd), qd)
        if not c < d:
            continue
        try:
            report = is_trap(c, d, depth=16, tol=F(1, 100))
        except BudgetExceededError:
            continue
        assert report.trapped == trap_by_automaton(c, d), (c, d)
        decided[report.trapped] += 1
    assert min(decided.values()) >= 10, decided


def test_sigma_dimensions():
    assert abs(sigma_n_dimension(1) - math.log2(GOLDEN)) < 1e-9
    # real root of x^3 = x^2 + 1
    root = 1.0
    for _ in range(200):
        root = root - (root**3 - root**2 - 1) / (3 * root**2 - 2 * root)
    assert abs(sigma_n_dimension(2) - math.log2(root)) < 1e-9
    assert sigma_n_dimension(2) < sigma_n_dimension(1)


def test_sigma_dimension_is_the_chain_oracle_bit_for_bit():
    # the hole (0, 1/2 - 2^-(n+1)) has the (n+1)-state chain as its one
    # branching component, so the pipeline's float is the chain's exactly
    for n in range(1, 9):
        lo, hi = entropy(sigma_n_chain(n))
        assert sigma_n_dimension(n) == (lo + hi) / (2 * math.log(2)), n
    with pytest.raises(ValueError, match="n must be >= 1"):
        sigma_n_dimension(0)


@pytest.mark.parametrize("n", [1, 2])
def test_sigma_counts_match_bruteforce(n):
    for length in (8, 12):
        assert sigma_n_chain(n).count_paths(length) == brute_sigma_count(n, length)


def test_sigma_counts_match_transfer_matrix():
    for n in range(1, 9):
        for length in range(30):
            assert sigma_n_chain(n).count_paths(length) == transfer_matrix_count(n, length)


def test_sigma_count_rejects_negative_length():
    assert sigma_n_chain(2).count_paths(0) == 1
    with pytest.raises(ValueError, match="-3"):
        sigma_n_chain(2).count_paths(-3)


@pytest.mark.parametrize("budget, lo, hi", [(1000, F(211, 512), F(423, 1024)),
                                             (100, F(3, 8), F(7, 16))],
                         ids=["in-bisection", "at-seed"])
def test_locate_names_the_perron_budget_and_the_bisection_bracket(monkeypatch, budget, lo, hi):
    # the seed check at 7/16 is the first Perron call, so it is wrapped too:
    # its partial answer is a bracket of a*, not of the Perron root
    monkeypatch.setattr(survivor, "PERRON_WORK_BUDGET", budget)
    with pytest.raises(BudgetExceededError,
                       match=rf"^Perron .*; bisection bracket \[{lo}, {hi}\]$") as exc:
        locate_entropy_transition(16)
    assert exc.value.partial == (lo, hi)


@pytest.mark.parametrize("bits", [0, survivor.MAX_BISECT_PRECISION + 1])
def test_locate_refuses_a_precision_before_any_classify(monkeypatch, bits):
    calls = []
    monkeypatch.setattr(survivor, "classify", lambda hole: calls.append(hole))
    with pytest.raises(ValueError, match=rf"^precision_bits must be in 1\.\.24, got {bits}$"):
        locate_entropy_transition(bits)
    assert calls == []


def test_locate_entropy_transition_coarse():
    lo, hi = locate_entropy_transition(4)
    assert hi - lo <= F(1, 16)
    assert F(3, 8) <= lo < hi <= F(7, 16)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_locate_never_returns_wider_than_the_seed_bracket(k):
    # the seed bracket is already 2^-4 wide, so no precision up to 4 bisects
    assert locate_entropy_transition(k) == (F(3, 8), F(7, 16))


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
