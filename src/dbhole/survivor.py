"""Classification and measurement of survivor sets.

classify() reads the component flags of the live survivor automaton: no
cycle beyond the fixed point, finitely many isolated cycles (each word read
along its states), or a branching strongly connected component.  The three
outcomes are decided graph-theoretically, never by comparing a float to
zero.  Entropy is certified by exact Collatz-Wielandt bounds on the Perron
root of the live adjacency matrix.  One scan over Lyndon words, independent
of the automaton, lists the cycles that avoid an open hole and finds
is_trap()'s escape witnesses; is_trap() decides interval trapping by exact
recursion on the gaps whose points have not yet met the interval.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import namedtuple
from enum import Enum
from fractions import Fraction

from .automaton import Hole, SurvivorAutomaton, _graph_sccs, build_automaton
from .rationals import BudgetExceededError, format_short
from .words import cyclic_extremes
from . import kernels


class Kind(str, Enum):
    FIXED_ONLY = "FixedOnly"
    COUNTABLE_CYCLES = "CountableCycles"
    POSITIVE_ENTROPY = "PositiveEntropy"


class Classification(namedtuple("Classification",
                                "kind cycles zero_loop entropy_lo entropy_hi")):
    """Outcome of classify().

    ``cycles`` lists the nontrivial surviving cycle codings (one per rotation
    class, written as the largest rotation starting with 0); the fixed point 0
    is tracked by ``zero_loop`` instead, and the formal all-ones loop, which
    codes no point of [0, 1), is never listed.  The entropy bracket is exact
    zero for the first two kinds and a certified positive interval for
    PositiveEntropy.  ``zero_loop`` is always True (kept, as the CLI's JSON
    and the benchmark's answers carry it): no open hole within [0, 1] holds
    the fixed point 0.  On 0-edges from the start the B tie stays 0 (b_first
    enters only on 1-edges), so none dies; the KMP border settles on the
    longest all-zero prefix and the A tie only grows up to a bound, so the
    path reaches a live state that is its own 0-successor.
    """

    __slots__ = ()

    @property
    def dimension(self) -> float:
        return (self.entropy_lo + self.entropy_hi) / (2 * math.log(2))


def _zero_max_rotation(w: str) -> str:
    """Largest rotation beginning with 0: the coding of the largest cycle
    point below 1/2.

    The largest rotation of a word holding a 0 ends in 0, so moving that 0
    to the front gives it.
    """
    return "0" + cyclic_extremes(w)[1][:-1]


# Work budget of one _perron_bracket call, in node visits plus successor-entry
# visits: about 25 times what the 10,020-state component of
# (3335/10007, 3336/10007) needs.
PERRON_WORK_BUDGET = 50_000_000
# Largest width of an entropy bracket.  The Perron roots of M + I are
# bracketed to a quarter of it, relatively, so the log bracket of a root
# rho >= 1 of M is at most half of it plus the float pad.
ENTROPY_WIDTH = Fraction(1, 10**10)
# Most entropy brackets classify() keeps, a few hundred bytes each; once full,
# it stores no more.
BRACKET_CACHE_SIZE = 4096
# is_trap() budgets: longest escape-witness cycle, most gaps tracked beyond one
TRAP_WITNESS_MAX_LEN = 12
MAX_TRAP_INTERVALS = 20_000
# Most bits locate_entropy_transition() bisects to
MAX_BISECT_PRECISION = 24
_brackets: dict[Hole, tuple[float, float]] = {}


def _perron_bracket(succ: list[list[int]]) -> tuple[Fraction, Fraction]:
    """Certified bracket for the Perron root of an irreducible digraph.

    ``succ[i]`` lists the successors of node i; a repeated entry is a
    parallel edge.  Power iteration on the adjacency matrix plus I (primitive
    whenever the graph is strongly connected) with exact integer vectors;
    every Collatz-Wielandt ratio pair min_i (Mx)_i/x_i <= rho <= max_i
    (Mx)_i/x_i is a valid bound for any positive vector, so occasional
    rescaling costs nothing.  Each iteration visits every node and successor
    entry once; past ``PERRON_WORK_BUDGET`` visits a BudgetExceededError
    carries the best bracket so far.
    """
    rel_tol = ENTROPY_WIDTH / 4
    n = len(succ)
    max_iter = max(1, PERRON_WORK_BUDGET // (n + sum(map(len, succ))))
    x = [1] * n
    best_lo = Fraction(0)
    best_hi: Fraction | None = None
    for _ in range(max_iter):
        y = [x[i] + sum(x[j] for j in succ[i]) for i in range(n)]
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
    raise BudgetExceededError(
        f"Perron bracket did not reach tolerance {rel_tol} in {max_iter} iterations, "
        f"{PERRON_WORK_BUDGET} node and successor-entry visits",
        partial=(best_lo - 1, best_hi - 1),
    )


def entropy(auto: SurvivorAutomaton) -> tuple[float, float]:
    """Certified bracket for the topological entropy of the live subgraph.

    Exactly (0.0, 0.0) when every strongly connected component is a single
    cycle; otherwise a bracket at most ``ENTROPY_WIDTH`` wide around log of
    the Perron root of the live adjacency matrix.
    """
    if not any(auto.live):
        raise ValueError("entropy undefined: automaton has no live states")
    branching = [states for states, is_cycle in auto.components if not is_cycle]
    if not branching:
        return (0.0, 0.0)
    lam_lo, lam_hi = Fraction(1), Fraction(1)
    for comp in branching:
        idx = {s: i for i, s in enumerate(comp)}
        succ = [[idx[t] for t in auto.transitions[s] if t in idx] for s in comp]
        del idx  # Perron peaks at its own vectors, not at the index too
        lo, hi = _perron_bracket(succ)
        lam_lo = max(lam_lo, lo)
        lam_hi = max(lam_hi, hi)
    pad = 1e-13
    h_lo = max(0.0, math.log(lam_lo.numerator / lam_lo.denominator) - pad)
    h_hi = math.log(lam_hi.numerator / lam_hi.denominator) + pad
    return (h_lo, h_hi)


def _bracket_key(hole: Hole) -> Hole:
    """min(hole, hole.mirror()), read off the integer pairs: the mirror exactly when a + b > 1."""
    (pa, qa), (pb, qb) = hole.a.as_integer_ratio(), hole.b.as_integer_ratio()
    return hole.mirror() if pa * qb + pb * qa > qa * qb else hole


def classify(hole: Hole) -> Classification:
    """Exact classification of the survivor set of an open hole.

    A PositiveEntropy bracket is memoised under the smaller of the hole and
    its mirror, so a hole and its mirror pay for one entropy() call; kind and
    cycles come from the hole's own automaton, and zero_loop is always True.
    """
    auto = build_automaton(hole)
    for _, is_cycle in auto.components:
        if not is_cycle:
            # the mirror's automaton swaps 0 and 1 and renumbers states, which Perron never sees
            key = _bracket_key(hole)
            bracket = _brackets.get(key) or entropy(auto)
            if len(_brackets) < BRACKET_CACHE_SIZE:
                _brackets.setdefault(key, bracket)
            return Classification(Kind.POSITIVE_ENTROPY, (), True, *bracket)
    # a state reads 0 if its 0-edge goes to the next; a one-state cycle, 0 or 1, is not listed
    trans = auto.transitions
    cycles = {_zero_max_rotation("".join("0" if trans[s][0] == t else "1"
                                         for s, t in zip(states, states[1:] + states[:1])))
              for states, _ in auto.components if len(states) > 1}
    kind = Kind.COUNTABLE_CYCLES if cycles else Kind.FIXED_ONLY
    ordered = tuple(sorted(cycles, key=lambda w: (len(w), w))) if cycles else ()
    return Classification(kind, ordered, True, 0.0, 0.0)


def _cycles_avoiding(inside, max_len: int):
    """The cycles of length <= max_len with no point x where ``inside(x)``,
    by length and least rotation, each as its largest rotation starting with 0.

    Duval's rule lists each primitive necklace once as its least rotation w
    (a Lyndon word): repeat w to length max_len, strip the trailing 1s, turn
    the last 0 into a 1.  The last word, 1, codes 1, outside [0, 1): skipped.
    The cycle's points are v 2^k mod (2^L - 1) over 2^L - 1, v = int(w, 2).
    """
    words, w = [], "0"
    while max_len >= 1 and w != "1":
        words.append(w)
        w = (w * max_len)[:max_len].rstrip("1")[:-1] + "1"
    for w in sorted(words, key=lambda w: (len(w), w)):
        q, v = (1 << len(w)) - 1, int(w, 2)
        points = [(v << k) % q for k in range(len(w))]
        if not any(inside(Fraction(p, q)) for p in points):
            yield _zero_max_rotation(w)


def enumerate_surviving_cycles(hole: Hole, max_len: int) -> list[str]:
    """All cycle codings of length <= max_len whose orbit avoids the open hole.

    One word per rotation class (largest rotation starting with 0), sorted by
    length then value.  The all-ones word is skipped: it codes 1, outside
    [0, 1).  Runtime grows like the Lyndon-word count, about 2^max_len/max_len.
    """
    if max_len < 1:
        raise ValueError("max_len must be positive")
    cycles = _cycles_avoiding(lambda x: hole.a < x < hole.b, max_len)
    return sorted(cycles, key=lambda w: (len(w), w))


def sigma_n_dimension(n: int) -> float:
    """Hausdorff dimension of the set coded by "every 0 is followed by at least
    n ones": up to countably many points, the survivor set of (0, 1/2 - 2^-(n+1))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return classify(Hole(0, Fraction(1, 2) - Fraction(1, 2 ** (n + 1)))).dimension


def cylinder_counts(hole: Hole, depth: int) -> tuple[int, int]:
    """Exact dyadic-cylinder survival bracket at the given generation.

    lower: cylinders whose first ``depth`` images are disjoint from the open
    hole; upper: cylinders none of whose first ``depth`` images is contained
    in it.  The automaton's path count of the same length always lies between
    the two.  A depth above ``kernels.MAX_CYLINDER_DEPTH`` raises
    BudgetExceededError.
    """
    return kernels.cylinder_counts(depth, hole.a.numerator, hole.a.denominator,
                                   hole.b.numerator, hole.b.denominator)


class TrapReport(namedtuple("TrapReport", "trapped residual_measure escape_witness")):
    """Outcome of is_trap: ``trapped`` is True (a proof) or False, the measure
    of the points not yet trapped, and the escape witness of a False answer
    (None for True)."""

    __slots__ = ()


def _certify_trapped(gaps: list[tuple[Fraction, Fraction]]) -> bool:
    """True when no point of (0, 1) can stay inside the gaps forever.

    Needs the gaps sorted and disjoint, every one within (0, 1/2] or
    [1/2, 1), the first at 0 and the last at 1, as is_trap's gaps are once
    1/2 lies in [c, d]; each gap then has one image under 2x mod 1, which
    meets one contiguous run of gaps.  Builds the directed overlap graph of
    those images.  The end gaps lose their self-loop (doubling expels every
    interior point in finite time).  Any other forever-avoiding orbit would
    settle in one strongly connected component; if that component is a
    single cycle of gaps, the composed affine return map is expanding with a
    rational fixed point, so the orbit can only persist at that fixed point
    -- certified impossible when the fixed point lies in no gap.
    """
    branch = [int(lo >= Fraction(1, 2)) for lo, _ in gaps]
    los, his = zip(*gaps)  # both increasing; gap j meets (x, y) iff x < his[j] and los[j] < y
    succ = [list(range(bisect_right(his, 2 * lo - s), bisect_left(los, 2 * hi - s)))
            for (lo, hi), s in zip(gaps, branch)]
    succ[0].remove(0)
    succ[-1].remove(len(gaps) - 1)

    for comp, is_cycle in _graph_sccs(succ)[0]:
        if not is_cycle:
            return False
        # the return map's fixed point is the point coded by the cycle's branches
        word = "".join(str(branch[s]) for s in comp)
        fixed = Fraction(int(word, 2), (1 << len(comp)) - 1)
        if any(gaps[t][0] < fixed < gaps[t][1] for t in comp):
            return False
    return True


def is_trap(c: Fraction, d: Fraction, depth: int = 24, tol=Fraction(1, 10**6)) -> TrapReport:
    """Is [c, d] a trap, i.e. do its backward images cover all of (0, 1)?

    Tracks the gaps (points whose orbit has not met [c, d]) for ``depth``
    exact rounds: from (0, c), (d, 1), each round takes their two preimages
    cut at c and d, which stay sorted.  trapped=True requires both their
    measure, the residual, to drop below ``tol`` and the expanding-gap
    certificate to hold, so it is a proof.  trapped=False comes with a witness:
    a cycle of at most ``TRAP_WITNESS_MAX_LEN`` symbols (or the coding 1(0)
    of 1/2) that avoids the closed interval.  A search that ends undecided,
    after ``depth`` rounds or past ``MAX_TRAP_INTERVALS + 1`` gaps, raises
    BudgetExceededError naming that budget and the residual it reached; it
    has no bracket, so its ``partial`` is None.
    """
    c, d = Fraction(c), Fraction(d)
    if not 0 < c < d < 1:
        raise ValueError(f"need 0 < c < d < 1, got [{c}, {d}]")
    tol = Fraction(tol)
    if depth < 0 or tol <= 0:
        raise ValueError(f"need depth >= 0 and tol > 0, got {depth} and {tol}")

    residual = Fraction(1) - (d - c)
    avoiding = _cycles_avoiding(lambda x: c <= x <= d, TRAP_WITNESS_MAX_LEN)
    half_escapes = not c <= Fraction(1, 2) <= d  # the orbit 1/2, 0, 0, ... misses [c, d]
    witness = next((w for w in avoiding if w != "0"), "1(0)" if half_escapes else None)
    if witness is not None:
        return TrapReport(False, residual, witness)

    gaps = [(Fraction(0), c), (d, Fraction(1))]
    search = f"trap search for [{format_short(c)}, {format_short(d)}]"
    for k in range(1, depth + 1):
        pre = [(lo / 2, hi / 2) for lo, hi in gaps]
        pre += [((lo + 1) / 2, (hi + 1) / 2) for lo, hi in gaps]
        gaps = ([(lo, min(hi, c)) for lo, hi in pre if lo < c]
                + [(max(lo, d), hi) for lo, hi in pre if hi > d])
        if len(gaps) > MAX_TRAP_INTERVALS + 1:
            raise BudgetExceededError(
                f"{search} has {len(gaps)} gaps in round {k}, above the gap budget of "
                f"{MAX_TRAP_INTERVALS + 1}; residual {format_short(residual)}")
        residual = sum((hi - lo for lo, hi in gaps), Fraction(0))
        if residual < tol and _certify_trapped(gaps):
            return TrapReport(True, residual, None)
    raise BudgetExceededError(f"{search} undecided after {depth} rounds; residual "
                              f"{format_short(residual)}, tol {format_short(tol)}")


def locate_entropy_transition(precision_bits: int) -> tuple[Fraction, Fraction]:
    """Dyadic bracket around the symmetric-hole parameter where the survivor
    set first gains positive entropy: at most 2^-precision_bits wide, and never
    wider than the seed bracket [3/8, 7/16] that bisection on a for holes
    (a, 1-a) starts from.  The survivor set only grows with a, so the
    classification flips exactly once.  A precision outside
    1..``MAX_BISECT_PRECISION`` is refused before any classify() call.
    """
    if not 1 <= precision_bits <= MAX_BISECT_PRECISION:
        raise ValueError(f"precision_bits must be in 1..{MAX_BISECT_PRECISION}, "
                         f"got {precision_bits}")
    lo, hi = Fraction(3, 8), Fraction(7, 16)

    def positive(a: Fraction) -> bool:
        cls = classify(Hole(a, 1 - a))
        return cls.kind is Kind.POSITIVE_ENTROPY

    target = Fraction(1, 2 ** precision_bits)
    try:
        if positive(lo) or not positive(hi):
            raise ValueError(f"seed bracket [{lo}, {hi}] does not straddle the transition")
        while hi - lo > target:
            mid = (lo + hi) / 2
            if positive(mid):
                hi = mid
            else:
                lo = mid
    except BudgetExceededError as exc:
        raise BudgetExceededError(
            f"{exc}; bisection bracket [{format_short(lo)}, {format_short(hi)}]",
            partial=(lo, hi),
        ) from exc
    return lo, hi
