"""Finite automaton recognizing survivor codings of a hole.

For an open hole (a, b) with rational endpoints, a 0-1 sequence w codes a
surviving orbit exactly when every tail sigma^k w has value outside (a, b).
Writing A for the lexicographically largest representation of a and B for the
lexicographically smallest representation of b, this is the condition

    for every k:   sigma^k w <= A   or   sigma^k w >= B

and it can be tracked with finitely many suffix-match states because A and B
are eventually periodic.  Each state records which prefixes of the common
prefix of A and B the recent suffixes of the input still tie with, and the
binding tie against each endpoint; a tie that breaks upward past A while
still below B pins the tail value strictly inside the hole and kills the
path.  A tie is named by the value of the endpoint tail still to match, as
its numerator over that endpoint's denominator: the tail reads 1 when the
value is at least (A) or above (B) one half, and moves on by doubling.  No
two tails of one word are the two expansions of a dyadic rational, so
lexicographic order on the tails is the numeric order of their numerators.
Ties against A (resp. B) are conjunctive constraints, so only the binding
one -- the smallest (resp. largest) remaining tail -- needs to be kept, which
bounds the state count by a polynomial in the expansion lengths; the build
does constant work per state and edge, whatever the period.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .rationals import BudgetExceededError, lex_max_expansion, lex_min_expansion
from .words import EvPeriodicWord


@dataclass(frozen=True)
class Hole:
    """Open interval (a, b) within [0, 1] with rational endpoints."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if not (0 <= self.a < self.b <= 1):
            raise ValueError(f"need 0 <= a < b <= 1, got ({self.a}, {self.b})")

    def mirror(self) -> "Hole":
        return Hole(1 - self.b, 1 - self.a)

    def __str__(self) -> str:
        return f"({self.a}, {self.b})"


@dataclass
class SurvivorAutomaton:
    """Deterministic partial automaton over {0, 1}.

    ``transitions[s]`` is a pair (target on 0, target on 1) with -1 for a
    missing edge.  ``live[s]`` marks states with an infinite outgoing path;
    infinite paths from the start state are exactly the surviving codings.
    """

    transitions: list[tuple[int, int]]
    live: list[bool]
    start: int = 0
    hole: Hole | None = None
    left_word: EvPeriodicWord | None = None
    right_word: EvPeriodicWord | None = None

    @classmethod
    def from_transitions(cls, transitions, start: int = 0) -> "SurvivorAutomaton":
        trans = [tuple(t) for t in transitions]
        return cls(trans, _live_states(trans), start)

    @property
    def n_states(self) -> int:
        return len(self.transitions)

    def count_paths(self, length: int, live_only: bool = False) -> int:
        """Number of words of the given length labeling paths from the start.

        With ``live_only`` the path must end in a live state, i.e. the word is
        a prefix of an accepted infinite sequence.
        """
        vec = {self.start: 1}
        for _ in range(length):
            nxt: dict[int, int] = {}
            for s, c in vec.items():
                for t in self.transitions[s]:
                    if t >= 0:
                        nxt[t] = nxt.get(t, 0) + c
            vec = nxt
        if live_only:
            return sum(c for s, c in vec.items() if self.live[s])
        return sum(vec.values())

    def accepts(self, word: str) -> bool:
        """Is the finite word the label of a path from the start state?"""
        s = self.start
        for ch in word:
            s = self.transitions[s][int(ch)]
            if s < 0:
                return False
        return True

    def dump(self) -> str:
        """Deterministic text form: one "state symbol -> state" line per edge."""
        lines = [f"states: {self.n_states}", f"start: {self.start}"]
        lines.append("live: " + " ".join(str(s) for s in range(self.n_states) if self.live[s]))
        for s, (t0, t1) in enumerate(self.transitions):
            if t0 >= 0:
                lines.append(f"{s} 0 -> {t0}")
            if t1 >= 0:
                lines.append(f"{s} 1 -> {t1}")
        return "\n".join(lines) + "\n"


def _live_states(trans: list[tuple[int, int]]) -> list[bool]:
    """States admitting an infinite outgoing path (kill dead ends repeatedly)."""
    n = len(trans)
    preds: list[list[int]] = [[] for _ in range(n)]
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


def build_automaton(hole: Hole, max_states: int = 1_000_000) -> SurvivorAutomaton:
    """Automaton whose infinite paths are exactly the survivor codings of the hole.

    A path dies at the first symbol that decides some tail strictly between
    the two endpoint expansions; boundary-valued tails survive, matching the
    openness of the hole.
    """
    if hole.a >= hole.b:
        raise ValueError(f"empty hole {hole}")
    wa = lex_max_expansion(hole.a)
    wb = lex_min_expansion(hole.b)
    # a tail of A (resp. B) is named by its numerator over qa (resp. qb)
    qa, qb = hole.a.denominator, hole.b.denominator
    ca, cb = hole.a.numerator, hole.b.numerator

    # common prefix of A and B; they differ since a < b, and at the first
    # difference A carries 0, B carries 1
    common = []
    while (2 * ca >= qa) == (2 * cb > qb):
        ch = int(2 * ca >= qa)
        common.append(ch)
        ca, cb = 2 * ca - ch * qa, 2 * cb - ch * qb
    cstar = len(common)
    a_first = 2 * ca
    b_first = 2 * cb - qb

    start = ((), -1, -1)  # (suffix ties with the common prefix, A tie, B tie)
    ids = {start: 0}
    trans: list[list[int]] = [[-1, -1]]
    queue = [start]
    head = 0
    while head < len(queue):
        state = queue[head]
        head += 1
        sid = ids[state]
        abt, amin, bmax = state
        for ch in (0, 1):
            a_cands = []
            b_cands = []
            new_ab = []
            for i in (0,) + abt:  # ascending, so new_ab stays sorted
                if i < cstar:
                    if ch == common[i]:
                        new_ab.append(i + 1)
                    # a mismatch inside the common prefix resolves the tie:
                    # below A or above B, satisfied either way
                elif ch == 0:
                    a_cands.append(a_first)
                else:
                    b_cands.append(b_first)
            if amin >= 0:
                na = int(2 * amin >= qa)
                if ch == na:
                    a_cands.append(2 * amin - na * qa)
                elif ch > na:
                    continue  # tail now strictly inside the hole
            if bmax >= 0:
                nb = int(2 * bmax > qb)
                if ch == nb:
                    b_cands.append(2 * bmax - nb * qb)
                elif ch < nb:
                    continue
            namin = min(a_cands) if a_cands else -1
            nbmax = max(b_cands) if b_cands else -1
            nstate = (tuple(new_ab), namin, nbmax)
            nid = ids.get(nstate)
            if nid is None:
                nid = len(trans)
                if nid >= max_states:
                    raise BudgetExceededError(
                        f"automaton for {hole} exceeds {max_states} states"
                    )
                ids[nstate] = nid
                trans.append([-1, -1])
                queue.append(nstate)
            trans[sid][ch] = nid
    tuples = [(t0, t1) for t0, t1 in trans]
    return SurvivorAutomaton(tuples, _live_states(tuples), 0, hole, wa, wb)
