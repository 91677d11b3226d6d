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
survivor._perron_bracket       rome_bracket                 test_perron_bracket_overlaps_rome_certificate
entropy (holes around 1/2)     kneading_entropy             test_entropy_matches_kneading_invariant
survivor._zero_max_rotation    reference_zero_max_rotation  test_zero_max_rotation_matches_reference
survivor._cycles_avoiding      primitive_necklaces          test_cycle_scan_matches_necklace_filter,
                                                            test_primitive_necklace_counts
is_trap (gap recursion)        reference_is_trap            test_is_trap_matches_union_reference
survivor._certify_trapped      reference_certify_trapped    test_is_trap_matches_union_reference
is_trap (verdicts)             trap_by_automaton            test_is_trap_agrees_with_automaton_criterion
sigma_n_matrix_word_count      transfer_matrix_count        test_sigma_counts_match_transfer_matrix
sigma_n_matrix_word_count      brute_sigma_count            test_sigma_counts_match_bruteforce
*test_holes.py*
holes.catalog (the theorem)    grid_search                  test_grid_search_returns_the_catalog
test_supercritical (one eps)   grid_supercritical           test_near_misses_pass_one_epsilon_only
*test_kernels.py*
kernels.cylinder_counts        reference_counts             test_pure_kernel_matches_reference,
                                                            test_kernel_matches_reference_on_random_holes
kernels.cylinder_counts        MAX_CYLINDER_DEPTH (budget)  test_depth_past_budget_raises_before_enumerating
survivor.cylinder_counts       recorder (monkeypatched)     test_survivor_dispatches_to_kernel_at_call_time
=============================  ===========================  ==============================================

``kneading_entropy`` reads two greedy paths off the automaton's transitions
and live flags and finds no eigenvector, so it is independent of the Perron
step but not of the build.
``rome_bracket`` shares only the graph with power iteration: it certifies
the Perron root from the first-return paths between a few nodes that meet
every cycle.
``reference_is_trap`` finds its escape witnesses with the brute-force
necklace filter, not with the Lyndon-word scan it checks, and certifies
with ``reference_certify_trapped``, the general certificate that also
takes gaps holding 1/2; ``is_trap`` never builds those.
``trap_by_automaton`` decides traps from the automaton alone: from its
components' cycle flags and the words read along their cycle order.
``grid_search`` runs the paper's theorem backwards: it tests every grid pair
around 1/2 for supercriticality, from the closed-trap criterion and the
component flags of shrunken holes, and must find exactly the catalog.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from dbhole.automaton import Hole, _graph_sccs, build_automaton
from dbhole.rationals import BudgetExceededError, lex_max_expansion, lex_min_expansion
from dbhole.survivor import TrapReport
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


def rome_bracket(succ, delta=F(1, 2**36)):
    """Reference: a certified bracket (lo, hi) for the Perron root rho of a
    strongly connected digraph that is not a simple cycle, by the rome method
    (Block, Guckenheimer, Misiurewicz & Young 1980; Alsedà, Llibre &
    Misiurewicz 2000), with no eigenvector of the n-node matrix.

    ``succ`` is as for ``survivor._perron_bracket``.  The nodes R of
    in-degree >= 2 (a parallel edge counts twice) meet every cycle: one that
    avoided them would be entered from no other node, so it would be the whole
    graph.  Every other node has one predecessor, so one walk from each node
    of R, stopped at nodes of R, meets each first-return path once; they give
    the r x r matrix A(t) with A_ij(t) the sum of t^length over the paths from
    i to j.  The powers of A(t) sum the closed walks through R, each weighted
    t^length, so rho(A(t)) < 1 exactly when t < t* = 1/rho.

    A float bisection on the pivot test of I - A(t) (elimination without
    pivoting keeps every pivot positive iff rho(A(t)) < 1) brackets t* in
    [lo, hi]; it starts below 1/2, since the full shift has t* = 1/2.  The
    test vector is x = (I - A(lo))^-1 1, solved at lo itself, and rounded to
    integers.  Collatz-Wielandt then proves t_lo < t* < t_hi for dyadic
    t_lo <= lo (1 - delta) and t_hi >= hi (1 + delta): A(t_lo) x < x and
    A(t_hi) x > x, checked exactly with the powers of t rounded up and down
    respectively.  So rho lies in (1/t_hi, 1/t_lo); a failed check raises
    AssertionError, and no unchecked bracket is returned.
    """
    indeg = [0] * len(succ)
    for targets in succ:
        for j in targets:
            indeg[j] += 1
    rome = {v: i for i, v in enumerate(v for v, d in enumerate(indeg) if d >= 2)}
    if not rome:
        raise ValueError("a simple cycle has no rome")
    r = len(rome)
    paths = []  # (i, j, length) for each first-return path from rome node i to j
    for v, i in rome.items():
        stack = [(u, 1) for u in succ[v]]
        while stack:
            u, length = stack.pop()
            if u in rome:
                paths.append((i, rome[u], length))
            else:
                stack.extend((w, length + 1) for w in succ[u])

    def factor(t):
        """LU factors of I - A(t) in one matrix, or None at a pivot <= 0."""
        m = [[float(i == j) for j in range(r)] for i in range(r)]
        for i, j, length in paths:
            m[i][j] -= t ** length
        for k in range(r):
            if not m[k][k] > 0:
                return None
            for i in range(k + 1, r):
                f = m[i][k] = m[i][k] / m[k][k]
                for j in range(k + 1, r):
                    m[i][j] -= f * m[k][j]
        return m

    lo, hi = 0.5 / max(map(len, succ)), 1.0
    assert factor(lo) is not None and factor(hi) is None, "rho outside (1, 2 max out-degree)"
    while lo < (mid := (lo + hi) / 2) < hi:
        if factor(mid) is None:
            hi = mid
        else:
            lo = mid
    lu = factor(lo)
    x = [1.0] * r
    for i in range(r):
        x[i] -= sum(lu[i][j] * x[j] for j in range(i))
    for i in reversed(range(r)):
        x[i] = (x[i] - sum(lu[i][j] * x[j] for j in range(i + 1, r))) / lu[i][i]
    assert all(0 < v < math.inf for v in x), "test vector not positive"
    # x >= 1, so 52 fraction bits keep it to float precision; the powers of t
    # are rounded to 2^-bits, far below delta relative to the smallest x
    x = [int(v * 2**52) for v in x]
    maxlen = max(length for _, _, length in paths)
    bits = (64 + (len(paths) * maxlen).bit_length() + max(x).bit_length()
            + delta.denominator.bit_length())
    t_lo = math.floor(F(lo) * (1 - delta) * 2**bits)
    t_hi = math.ceil(F(hi) * (1 + delta) * 2**bits)
    up, down = [1 << bits], [1 << bits]
    for _ in range(maxlen):
        up.append(-(-up[-1] * t_lo >> bits))
        down.append(down[-1] * t_hi >> bits)
    below, above = [0] * r, [0] * r
    for i, j, length in paths:
        below[i] += up[length] * x[j]
        above[i] += down[length] * x[j]
    assert all(s < v << bits for s, v in zip(below, x)), "A(t_lo) x < x fails"
    assert all(s > v << bits for s, v in zip(above, x)), "A(t_hi) x > x fails"
    return F(1 << bits, t_hi), F(1 << bits, t_lo)


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


def reference_certify_trapped(gaps: list[tuple[Fraction, Fraction]]) -> bool:
    """True when no point of (0, 1) can stay inside the gaps forever: the
    general survivor._certify_trapped, which also takes gaps that hold 1/2.

    Builds the directed overlap graph of gap images under 2x mod 1.  End gaps
    at 0 and 1 lose their self-loop (doubling expels every interior point in
    finite time).  Any other forever-avoiding orbit would settle in one
    strongly connected component; if that component is a single cycle of
    gaps, each on one branch of the map, the composed affine return map is
    expanding with a rational fixed point, so the orbit can only persist at
    that fixed point -- certified impossible when the fixed point lies in no
    gap.
    """
    n = len(gaps)
    half = Fraction(1, 2)
    succ: list[list[int]] = [[] for _ in range(n)]
    branch: list[int | None] = [None] * n
    for i, (lo, hi) in enumerate(gaps):
        pieces = []
        if lo < half:
            pieces.append((2 * lo, 2 * min(hi, half), 0))
        if hi > half:
            pieces.append((2 * max(lo, half) - 1, 2 * hi - 1, 1))
        if len(pieces) == 1:
            branch[i] = pieces[0][2]
        for plo, phi, _ in pieces:
            for j, (glo, ghi) in enumerate(gaps):
                if plo < ghi and glo < phi:
                    succ[i].append(j)
    if n and gaps[0][0] == 0 and gaps[0][1] <= half:
        succ[0] = [j for j in succ[0] if j != 0]
    if n and gaps[-1][1] == 1 and gaps[-1][0] >= half:
        succ[-1] = [j for j in succ[-1] if j != n - 1]

    for comp, is_cycle in _graph_sccs(succ)[0]:
        if not is_cycle or any(branch[s] is None for s in comp):
            return False
        # the return map's fixed point is the point coded by the cycle's branches
        word = "".join(str(branch[s]) for s in comp)
        fixed = Fraction(int(word, 2), (1 << len(comp)) - 1)
        if any(gaps[t][0] < fixed < gaps[t][1] for t in comp):
            return False
    return True


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
        if residual < tol and reference_certify_trapped(gaps):
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


def grid_points(max_j):
    """Every k/(4(2^j - 1)) in (0, 1) for 1 <= j <= max_j, in increasing
    order.  The gap endpoints for p/q have denominator 4(2^q - 1), and
    1/3 = 4/12, so the grid holds every catalog entry with q <= max_j."""
    return sorted({F(k, 4 * ((1 << j) - 1))
                   for j in range(1, max_j + 1) for k in range(1, 4 * ((1 << j) - 1))})


def grid_supercritical(a, b, ks=range(12, 41, 4)):
    """The paper's definition, tested without a Perron step: [a, b] is a
    closed trap, and for every k in ``ks`` the inner hole (a + 2^-k,
    b - 2^-k) keeps a branching survivor component."""
    return trap_by_automaton(a, b) and all(
        not all(is_cycle for _, is_cycle in
                build_automaton(Hole(a + F(1, 1 << k), b - F(1, 1 << k))).components)
        for k in ks)


def grid_search(max_j):
    """The pairs a <= 1/2 <= b, a < b, of grid_points(max_j) that
    grid_supercritical accepts."""
    points = grid_points(max_j)
    half = F(1, 2)
    return {(a, b) for a in points if a <= half for b in points
            if b >= half and a < b and grid_supercritical(a, b)}


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
