"""Slow, independent reference implementations of the library's fast paths.

Each oracle is a direct transcription of a definition, or an earlier
implementation kept verbatim, and the tests compare the fast path with it:

=============================  ===========================  ==============================================
fast path (``dbhole``)         oracle                       test
=============================  ===========================  ==============================================
*test_automaton.py*
build_automaton transitions    reference_transitions        test_transitions_match_shift_and_reference
SurvivorAutomaton.live         peel_dead_ends               test_live_flags_match_dead_end_peeling
build_automaton (paths)        accepts                      test_path_existence_matches_lexicographic_death
build_automaton prefix budget  common_prefix_len            test_states_outnumber_common_prefix
*test_words.py*, *test_rationals.py*, *test_acceptance.py*
standard_words                 is_balanced                  test_criterion_9_property_suites
characteristic_prefix          is_balanced                  test_criterion_9_property_suites
binary_expansion (order)       lex_compare                  test_lex_order_matches_value_order_on_canonical_words,
                                                            test_criterion_9_property_suites
EvPeriodicWord.shift           doubling_map                 test_shift_conjugacy
gap_interval (alpha's cycle)   orbit                        test_alpha_expansion_purely_periodic_and_orbit_closes,
                                                            test_criterion_9_property_suites
*test_survivor.py*
_graph_sccs (is_cycle, order)  reachability sets (inline)   test_graph_sccs_match_mutual_reachability
survivor._perron_bracket       dense_perron_bracket         test_perron_bracket_matches_dense_reference
entropy (holes around 1/2)     kneading_entropy             test_entropy_matches_kneading_invariant
survivor._zero_max_rotation    reference_zero_max_rotation  test_zero_max_rotation_matches_reference
survivor._cycles_avoiding      primitive_necklaces          test_cycle_scan_matches_necklace_filter,
                                                            test_primitive_necklace_counts
is_trap (gap recursion)        reference_is_trap            test_is_trap_matches_union_reference
is_trap (verdicts)             trap_by_automaton            test_is_trap_agrees_with_automaton_criterion
sigma_n_matrix_word_count      transfer_matrix_count        test_sigma_counts_match_transfer_matrix
sigma_n_matrix_word_count      brute_sigma_count            test_sigma_counts_match_bruteforce
*test_kernels.py*
kernels.cylinder_counts        reference_counts             test_pure_kernel_matches_reference,
                                                            test_kernel_matches_reference_on_random_holes
kernels.cylinder_counts        MAX_CYLINDER_DEPTH (budget)  test_depth_past_budget_raises_before_enumerating
survivor.cylinder_counts       recorder (monkeypatched)     test_survivor_dispatches_to_kernel_at_call_time
=============================  ===========================  ==============================================

``kneading_entropy`` reads two greedy paths off the automaton's transitions
and live flags and finds no eigenvector, so it is independent of the Perron
step but not of the build.
``reference_is_trap`` finds its escape witnesses with the brute-force
necklace filter, not with the Lyndon-word scan it checks, and
``trap_by_automaton`` decides traps from the automaton alone: from its
components' cycle flags and the words read along their cycle order.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from dbhole.automaton import Hole, build_automaton
from dbhole.rationals import BudgetExceededError, lex_max_expansion, lex_min_expansion
from dbhole.survivor import TrapReport, _certify_trapped
from dbhole.words import check_word

F = Fraction
LESS, EQUAL, GREATER = -1, 0, 1


def primitive_necklaces(max_len):
    """(word, rotations) for every primitive binary necklace of length at most
    ``max_len``, written as its least rotation, by length then value: all 2^L
    words of each length L, kept when no rotation is smaller and all L
    rotations differ.  The all-ones word 1 is included."""
    for length in range(1, max_len + 1):
        for k in range(1 << length):
            w = format(k, f"0{length}b")
            rots = [w[i:] + w[:i] for i in range(length)]
            if w == min(rots) and len(set(rots)) == length:
                yield w, rots


def reference_transitions(hole):
    """The Shift-And BFS that read both symbols in one loop per state, kept
    as the reference for build_automaton's transitions (no state budget)."""
    qa, qb = hole.a.denominator, hole.b.denominator
    ca, cb = hole.a.numerator, hole.b.numerator

    common = []
    while (2 * ca >= qa) == (2 * cb > qb):
        ch = int(2 * ca >= qa)
        common.append(ch)
        ca, cb = 2 * ca - ch * qa, 2 * cb - ch * qb
    cstar = len(common)
    a_first = 2 * ca
    b_first = 2 * cb - qb

    match = [0, 0]
    for i, ch in enumerate(common):
        match[ch] |= 1 << i
    queue = [(0, -1, -1)]
    ids = {queue[0]: 0}
    trans = []
    head = 0
    while head < len(queue):
        mask, amin, bmax = queue[head]
        head += 1
        mask |= 1
        full = mask >> cstar & 1
        na = int(2 * amin >= qa) if amin >= 0 else -1
        nb = int(2 * bmax > qb) if bmax >= 0 else -1
        row = [-1, -1]
        for ch in (0, 1):
            namin = a_first if full and not ch else -1
            nbmax = b_first if full and ch else -1
            if ch == na:
                tail = 2 * amin - na * qa
                if namin < 0 or tail < namin:
                    namin = tail
            elif na >= 0 and ch > na:
                continue
            if ch == nb:
                tail = 2 * bmax - nb * qb
                if tail > nbmax:
                    nbmax = tail
            elif ch < nb:
                continue
            nstate = ((mask & match[ch]) << 1, namin, nbmax)
            nid = ids.get(nstate)
            if nid is None:
                nid = len(queue)
                ids[nstate] = nid
                queue.append(nstate)
            row[ch] = nid
        trans.append((row[0], row[1]))
    return trans


def peel_dead_ends(trans):
    """Reference liveness: remove states without successors until none is left."""
    n = len(trans)
    preds = [[] for _ in range(n)]
    outdeg = [0] * n
    for s, (t0, t1) in enumerate(trans):
        for t in (t0, t1):
            if t >= 0:
                preds[t].append(s)
                outdeg[s] += 1
    alive = [d > 0 for d in outdeg]
    stack = [s for s in range(n) if not alive[s]]
    while stack:
        dead = stack.pop()
        for s in preds[dead]:
            if alive[s]:
                outdeg[s] -= sum(1 for t in trans[s] if t == dead)
                if outdeg[s] == 0:
                    alive[s] = False
                    stack.append(s)
    return alive


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


def _greedy_live_word(auto, first, prefer):
    """(preperiod, period) of the live path from state 0 that reads ``first``,
    then ``prefer`` whenever that edge leads to a live state and the other
    symbol otherwise, cut at its first repeated state."""
    trans, live = auto.transitions, auto.live
    s = trans[0][first]
    word, seen = [first], {}
    while s not in seen:
        seen[s] = len(word)
        t = trans[s][prefer]
        ch = prefer if t >= 0 and live[t] else 1 - prefer
        word.append(ch)
        s = trans[s][ch]
    k = seen[s]
    return word[:k], word[k:]


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, c in enumerate(p):
        for j, d in enumerate(q):
            out[i + j] += c * d
    return out


def _power_series(pre, per):
    """sum_i w_i t^i of the word pre (per)^inf as (numerator, denominator)
    integer polynomials, lowest degree first: (P(t)(1 - t^p) + t^m Q(t)) and
    1 - t^p, where P and Q have the symbols of pre and per as coefficients."""
    m, p = len(pre), len(per)
    den = [1] + [0] * (p - 1) + [-1]
    num = _poly_mul(pre or [0], den)
    for j, c in enumerate(per):
        num[m + j] += c
    return num, den


def kneading_entropy(hole):
    """Float entropy of the survivor set of a hole with a < 1/2 < b, from its
    kneading invariant (Hubbard & Sparrow 1990; Glendinning & Hall 1996).

    A' is the largest live path from state 0 that starts with 0 and B' the
    smallest that starts with 1.  The entropy is -log of the smallest zero in
    (0, 1) of K(t) = sum_i (B'_i - A'_i) t^i, or 0 when K has none.  K is
    summed in closed form as N(t) / ((1 - t^p_A')(1 - t^p_B')); the
    denominator is positive on (0, 1), and the factors 1 - t of the integer
    polynomial N are divided out exactly, so float rounding cannot put a zero
    next to t = 1.  K(0) = 1 and K(t) >= 1 - t/(1 - t) > 0 below 1/2, so the
    scan starts there, on a grid geometric in 1 - t that ends at t = 1, and
    the first sign change is bisected.
    """
    if not hole.a < F(1, 2) < hole.b:
        raise ValueError(f"kneading_entropy needs a < 1/2 < b, got {hole}")
    auto = build_automaton(hole)
    num_a, den_a = _power_series(*_greedy_live_word(auto, 0, 1))
    num_b, den_b = _power_series(*_greedy_live_word(auto, 1, 0))
    num = [x - y for x, y in itertools.zip_longest(
        _poly_mul(num_b, den_a), _poly_mul(num_a, den_b), fillvalue=0)]
    while sum(num) == 0:
        # N(1) = 0: N / (1 - t) has the partial sums of N as coefficients
        num = list(itertools.accumulate(num[:-1]))

    def positive(t):
        v = 0.0
        for c in reversed(num):
            v = v * t + c
        return v > 0

    lo = 0.5
    for hi in [1 - 2.0 ** (-1 - i / 8) for i in range(1, 8 * 40)] + [1.0]:
        if not positive(hi):
            break
        lo = hi
    else:
        return 0.0
    for _ in range(60):
        mid = (lo + hi) / 2
        if positive(mid):
            lo = mid
        else:
            hi = mid
    return -math.log((lo + hi) / 2)


def dense_rows(succ):
    rows = [[0] * len(succ) for _ in succ]
    for i, targets in enumerate(succ):
        for j in targets:
            rows[i][j] += 1
    return rows


def reference_zero_max_rotation(w):
    """The largest rotation beginning with 0, found among all rotations."""
    rots = [w[i:] + w[:i] for i in range(len(w))]
    zero_rots = [r for r in rots if r[0] == "0"]
    return max(zero_rots) if zero_rots else min(rots)


def reference_merge_intervals(ivs):
    ivs.sort()
    out = [ivs[0]]
    for lo, hi in ivs[1:]:
        if lo <= out[-1][1]:
            if hi > out[-1][1]:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return out


def reference_complement_gaps(union):
    gaps = []
    if union[0][0] > 0:
        gaps.append((F(0), union[0][0]))
    for (_, h1), (l2, _) in zip(union, union[1:]):
        gaps.append((h1, l2))
    if union[-1][1] < 1:
        gaps.append((union[-1][1], F(1)))
    return gaps


def reference_is_trap(c, d, depth=24, tol=F(1, 10**6), witness_max_len=12,
                      max_intervals=20_000, cutoffs=None):
    """is_trap as it was before the gap recursion: grow the covered union of
    preimages, sort-merge it and take its complement.  ``cutoffs`` counts
    the runs stopped by ``max_intervals``."""
    c, d = F(c), F(d)
    tol = F(tol)
    for w, rots in primitive_necklaces(witness_max_len):
        if w in ("0", "1"):
            continue
        den = (1 << len(w)) - 1
        if all(not (c <= F(int(r, 2), den) <= d) for r in rots):
            return TrapReport(False, F(1) - (d - c), reference_zero_max_rotation(w))
    if not c <= F(1, 2) <= d:
        return TrapReport(False, F(1) - (d - c), "1(0)")
    union = [(c, d)]
    residual = F(1) - (d - c)
    for _ in range(depth):
        grown = list(union)
        for lo, hi in union:
            grown.append((lo / 2, hi / 2))
            grown.append(((lo + 1) / 2, (hi + 1) / 2))
        union = reference_merge_intervals(grown)
        if len(union) > max_intervals:
            if cutoffs is not None:
                cutoffs.append((c, d))
            break
        gaps = reference_complement_gaps(union)
        residual = sum((hi - lo for lo, hi in gaps), F(0))
        if residual < tol and _certify_trapped(gaps):
            return TrapReport(True, residual, None)
    return TrapReport(None, residual, None)


def trap_by_automaton(c, d):
    """[c, d] is a trap iff it holds 1/2, the open hole (c, d) has no
    branching survivor component, and every surviving cycle meets c or d."""
    if not c <= F(1, 2) <= d:
        return False
    auto = build_automaton(Hole(c, d))
    for states, is_cycle in auto.components:
        if not is_cycle:
            return False
        # a state reads 0 if its 0-edge leads to the next state of the cycle
        w = "".join("0" if auto.transitions[s][0] == t else "1"
                    for s, t in zip(states, states[1:] + states[:1]))
        if w in ("0", "1"):
            continue
        den = (1 << len(w)) - 1
        points = {F(int(w[i:] + w[:i], 2), den) for i in range(len(w))}
        if c not in points and d not in points:
            return False
    return True


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


def transfer_matrix_count(n, length):
    """Reference: sigma_n word count by the (n+1)-state transfer-matrix loop."""
    vec = [1] + [0] * n
    for _ in range(length):
        nxt = [0] * (n + 1)
        nxt[0] += vec[0]
        nxt[n] += vec[0]
        for k in range(1, n + 1):
            nxt[k - 1] += vec[k]
        vec = nxt
    return sum(vec)


def reference_counts(depth, pa, qa, pb, qb):
    """Direct Fraction transcription of the contract, for small depth."""
    a, b = F(pa, qa), F(pb, qb)
    lower = upper = 0
    for bits in itertools.product((0, 1), repeat=depth):
        disjoint = True
        never_inside = True
        for k in range(depth):
            tail = bits[k:]
            lo = F(sum(t << (len(tail) - 1 - i) for i, t in enumerate(tail)), 1 << len(tail))
            hi = lo + F(1, 1 << len(tail))
            if not (hi <= a or lo >= b):
                disjoint = False
            if a < lo and hi < b:
                never_inside = False
        lower += disjoint
        upper += never_inside
    return lower, upper


def accepts(auto, word):
    """Is the finite word the label of a path from the automaton's start state?"""
    s = 0
    for ch in word:
        s = auto.transitions[s][int(ch)]
        if s < 0:
            return False
    return True


def is_balanced(w):
    """True iff any two equal-length factors differ by at most 1 in 1-count."""
    w = check_word(w)
    n = len(w)
    ones = [0] * (n + 1)
    for i, c in enumerate(w):
        ones[i + 1] = ones[i] + (c == "1")
    for ell in range(1, n):
        lo = hi = ones[ell]
        for i in range(1, n - ell + 1):
            k = ones[i + ell] - ones[i]
            if k < lo:
                lo = k
            elif k > hi:
                hi = k
        if hi - lo > 1:
            return False
    return True


def lex_compare(u, v):
    """Order of two eventually periodic words as infinite sequences.

    Returns LESS (-1), EQUAL (0) or GREATER (+1).  Two words are EQUAL iff
    they agree as infinite sequences, regardless of representation.
    """
    m = max(len(u.preperiod), len(v.preperiod))
    pl = len(u.period) * len(v.period) // math.gcd(len(u.period), len(v.period))
    for i in range(m + pl):
        a, b = u.sym(i), v.sym(i)
        if a != b:
            return LESS if a < b else GREATER
    return EQUAL


def doubling_map(x):
    """2x mod 1 on [0, 1)."""
    x = F(x)
    if not 0 <= x < 1:
        raise ValueError(f"x must lie in [0, 1), got {x}")
    y = 2 * x
    return y - 1 if y >= 1 else y


@dataclass(frozen=True)
class OrbitResult:
    """Forward orbit of a rational split at the first repeated point."""

    transient: tuple
    cycle: tuple

    @property
    def cycle_length(self):
        return len(self.cycle)


def orbit(x, max_steps=100_000):
    """Orbit of x under 2x mod 1 until the first exact repeat.

    Rational orbits always close; if no repeat shows up within ``max_steps``
    a BudgetExceededError carries the transient computed so far.
    """
    x = F(x)
    seen = {}
    points = []
    cur = x
    for _ in range(max_steps + 1):
        if cur in seen:
            k = seen[cur]
            return OrbitResult(tuple(points[:k]), tuple(points[k:]))
        seen[cur] = len(points)
        points.append(cur)
        cur = doubling_map(cur)
    raise BudgetExceededError(
        f"orbit of {x} did not close within {max_steps} steps", partial=tuple(points)
    )


def common_prefix_len(hole):
    """Number of leading symbols that the hole's endpoint expansions A (the
    largest of a) and B (the smallest of b) share, read off the words."""
    a, b = lex_max_expansion(hole.a), lex_min_expansion(hole.b)
    k = 0
    while a.sym(k) == b.sym(k):
        k += 1
    return k
