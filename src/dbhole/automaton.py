"""Finite automaton recognizing survivor codings of a hole.

For an open hole (a, b) with rational endpoints, a 0-1 sequence w codes a
surviving orbit exactly when every tail sigma^k w has value outside (a, b).
Writing A for the lexicographically largest representation of a and B for the
lexicographically smallest representation of b, this is the condition

    for every k:   sigma^k w <= A   or   sigma^k w >= B

and it can be tracked with finitely many suffix-match states because A and B
are eventually periodic.  Each state records which prefixes of the common
prefix of A and B the recent suffixes of the input still tie with, as a
bitmask advanced Shift-And style (bit i: a tie with the first i symbols),
and the binding tie against each endpoint; a tie that breaks upward past A
while still below B pins the tail value strictly inside the hole and kills
the path.  A tie is named by the value of the endpoint tail still to match, as
its numerator over that endpoint's denominator: the tail reads 1 when the
value is at least (A) or above (B) one half, and moves on by doubling.  No
two tails of one word are the two expansions of a dyadic rational, so
lexicographic order on the tails is the numeric order of their numerators.
Ties against A (resp. B) are conjunctive constraints, so only the binding
one -- the smallest (resp. largest) remaining tail -- needs to be kept, which
bounds the state count by a polynomial in the expansion lengths; the build
does constant work per state and edge, whatever the period.

Liveness comes from the SCC condensation (Lind & Marcus, ch. 4): one Tarjan
pass over the transitions yields the components with an internal edge, and
a state is live exactly when it reaches one of them.  The automaton keeps
those components, so classification runs no second graph pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .rationals import BudgetExceededError, lex_max_expansion, lex_min_expansion


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
    ``components`` lists the strongly connected components with an internal
    edge, in reverse topological order; every state on a cycle is in one.
    """

    transitions: list[tuple[int, int]]
    live: list[bool]
    components: list[list[int]]
    start: int = 0
    hole: Hole | None = None

    @classmethod
    def from_transitions(cls, transitions, start: int = 0) -> "SurvivorAutomaton":
        trans = [tuple(t) for t in transitions]
        comps, live = _graph_sccs(trans)
        return cls(trans, live, comps, start)

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


def _graph_sccs(succ) -> tuple[list[list[int]], list[bool]]:
    """Strongly connected components with an internal edge, and per node
    whether an infinite path starts there (iterative Tarjan).

    ``succ[s]`` lists the successors of s; a negative entry is no edge, so
    automaton transitions are valid input.  Tarjan emits components in
    reverse topological order: every successor of a component lies in it or
    in one emitted before.  So a component is live, as it is emitted, when it
    has an internal edge or an edge into a live component.  An emitted node's
    index becomes n + (its component's root): above every DFS index, so it
    lowers no low-link, and equal across the component.
    """
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    live = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            s, it = work[-1]
            for t in it:
                if t < 0:
                    continue
                if index[t] < 0:
                    index[t] = low[t] = counter
                    counter += 1
                    stack.append(t)
                    work.append((t, iter(succ[t])))
                    break
                if index[t] < low[s]:  # t is still on the stack
                    low[s] = index[t]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[s] < low[parent]:
                        low[parent] = low[s]
                if low[s] == index[s]:
                    tag = n + s
                    comp = []
                    while True:
                        t = stack.pop()
                        index[t] = tag
                        comp.append(t)
                        if t == s:
                            break
                    internal = alive = False
                    for t in comp:
                        for u in succ[t]:
                            if u >= 0:
                                if index[u] == tag:
                                    internal = True
                                elif live[u]:
                                    alive = True
                    if internal:
                        comps.append(comp)
                    if internal or alive:
                        for t in comp:
                            live[t] = True
    return comps, live


def build_automaton(hole: Hole, max_states: int = 1_000_000) -> SurvivorAutomaton:
    """Automaton whose infinite paths are exactly the survivor codings of the hole.

    A path dies at the first symbol that decides some tail strictly between
    the two endpoint expansions; boundary-valued tails survive, matching the
    openness of the hole.
    """
    if hole.a >= hole.b:
        raise ValueError(f"empty hole {hole}")
    # words unused; kept for their expansion budgets and perfbench's expand span
    lex_max_expansion(hole.a)
    lex_min_expansion(hole.b)
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

    # Shift-And over the common prefix: bit i of a tie mask says the suffix
    # read so far ties with its first i symbols, and match[ch] holds bit i
    # when symbol i is ch; bit cstar (a tie with the whole prefix) goes on
    # to an A tie on 0 or a B tie on 1
    match = [0, 0]
    for i, ch in enumerate(common):
        match[ch] |= 1 << i
    # a state is (tie mask, A tie, B tie); its id is its place in the queue
    queue = [(0, -1, -1)]
    ids = {queue[0]: 0}
    trans: list[tuple[int, int]] = []
    head = 0
    while head < len(queue):
        mask, amin, bmax = queue[head]
        head += 1
        mask |= 1  # a suffix starting at the next symbol ties with the empty prefix
        full = mask >> cstar & 1
        # the next symbol of each binding tail, or -1 without such a tie
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
                continue  # tail now strictly inside the hole
            if ch == nb:
                tail = 2 * bmax - nb * qb
                if tail > nbmax:
                    nbmax = tail
            elif ch < nb:
                continue
            # a mismatch inside the common prefix resolves that tie: below A
            # or above B, satisfied either way
            nstate = ((mask & match[ch]) << 1, namin, nbmax)
            nid = ids.get(nstate)
            if nid is None:
                nid = len(queue)
                if nid >= max_states:
                    raise BudgetExceededError(
                        f"automaton for {hole} exceeds {max_states} states"
                    )
                ids[nstate] = nid
                queue.append(nstate)
            row[ch] = nid
        trans.append((row[0], row[1]))
    comps, live = _graph_sccs(trans)
    return SurvivorAutomaton(trans, live, comps, 0, hole)
