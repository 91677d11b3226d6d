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
bounds the state count by a polynomial in the expansion lengths.  Each state
reads 0 and 1 once: a B tie whose tail reads 1 kills the 0-edge (the tail
falls strictly inside the hole), an A tie whose tail reads 0 kills the
1-edge, and otherwise both ties move on by doubling.  So the build does
constant work per state and edge, whatever the period.

Liveness comes from the SCC condensation (Lind & Marcus, ch. 4): one Tarjan
pass over the transitions yields the components with an internal edge, and
a state is live exactly when it reaches one of them, and tells a simple cycle
from a branching component.  The automaton keeps the components with that
flag, a cycle's states in cycle order, so classification walks no graph again.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .rationals import BudgetExceededError, format_short, lex_max_expansion, lex_min_expansion


class Hole(namedtuple("Hole", "a b")):
    """Open interval (a, b) within [0, 1] with rational endpoints.

    The endpoints are coerced to Fraction, so ints and "p/q" strings work.
    """

    __slots__ = ()

    def __new__(cls, a, b):
        a, b = Fraction(a), Fraction(b)
        if not (0 <= a < b <= 1):
            raise ValueError(f"need 0 <= a < b <= 1, got ({format_short(a)}, {format_short(b)})")
        return super().__new__(cls, a, b)

    def mirror(self) -> "Hole":
        return Hole(1 - self.b, 1 - self.a)

    def __str__(self) -> str:
        return f"({format_short(self.a)}, {format_short(self.b)})"


class SurvivorAutomaton(namedtuple("SurvivorAutomaton", "transitions live components hole",
                                   defaults=(None,))):
    """Deterministic partial automaton over {0, 1}.

    ``transitions[s]`` is a pair (target on 0, target on 1) with -1 for a
    missing edge.  ``live[s]`` marks states with an infinite outgoing path;
    infinite paths from the start state 0 are exactly the surviving codings.
    ``components`` lists the strongly connected components with an internal
    edge, in reverse topological order, as (states, is_cycle) pairs; every
    state on a cycle is in one.  A simple cycle lists its states in order.
    ``hole`` is the Hole it was built for, or None.
    """

    __slots__ = ()

    @classmethod
    def from_transitions(cls, transitions) -> "SurvivorAutomaton":
        trans = [tuple(t) for t in transitions]
        comps, live = _graph_sccs(trans)
        return cls(trans, live, comps)

    @property
    def n_states(self) -> int:
        return len(self.transitions)

    def count_paths(self, length: int, live_only: bool = False) -> int:
        """Number of words of the given length labeling paths from the start.

        With ``live_only`` the path must end in a live state, i.e. the word is
        a prefix of an accepted infinite sequence.  A negative length raises
        ValueError; length 0 counts the empty word.
        """
        if length < 0:
            raise ValueError(f"length must be >= 0, got {length}")
        vec = {0: 1}
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

    def dump(self) -> str:
        """Deterministic text form: one "state symbol -> state" line per edge."""
        lines = [f"states: {self.n_states}", "start: 0"]
        lines.append("live: " + " ".join(str(s) for s in range(self.n_states) if self.live[s]))
        for s, (t0, t1) in enumerate(self.transitions):
            if t0 >= 0:
                lines.append(f"{s} 0 -> {t0}")
            if t1 >= 0:
                lines.append(f"{s} 1 -> {t1}")
        return "\n".join(lines) + "\n"


def _graph_sccs(succ) -> tuple[list[tuple[list[int], bool]], list[bool]]:
    """(nodes, is_cycle) for each strongly connected component with an
    internal edge, and per node whether an infinite path starts there
    (iterative Tarjan).

    ``succ[s]`` lists the successors of s; a negative entry is no edge, so
    automaton transitions are valid input.  Tarjan emits components in
    reverse topological order: every successor of a component lies in it or
    in one emitted before.  So a component is live, as it is emitted, when it
    has an internal edge or an edge into a live component.  An emitted node's
    index becomes n + (its component's root): above every DFS index, so it
    lowers no low-link, and equal across the component.  Each of its nodes
    has an internal edge, so it is a simple cycle exactly when it has as many
    internal edges as nodes (a repeated successor entry counts twice); a
    cycle is then walked into order from its first popped node.
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
                    internal, alive = 0, False
                    for t in comp:
                        for u in succ[t]:
                            if u >= 0:
                                if index[u] == tag:
                                    internal += 1
                                elif live[u]:
                                    alive = True
                    if internal == len(comp):
                        for i in range(1, len(comp)):
                            comp[i] = next(u for u in succ[comp[i - 1]]
                                           if u >= 0 and index[u] == tag)
                    if internal:
                        comps.append((comp, internal == len(comp)))
                    if internal or alive:
                        for t in comp:
                            live[t] = True
    return comps, live


def build_automaton(hole: Hole, max_states: int = 1_000_000) -> SurvivorAutomaton:
    """Automaton whose infinite paths are exactly the survivor codings of the hole.

    A path dies at the first symbol that decides some tail strictly between
    the two endpoint expansions; boundary-valued tails survive, matching the
    openness of the hole.  More than ``max_states`` states raise
    BudgetExceededError, before the build when the endpoints' common prefix
    alone is longer.
    """
    if hole.a >= hole.b:
        raise ValueError(f"empty hole {hole}")
    # words unused; kept for their expansion budgets and perfbench's expand span
    lex_max_expansion(hole.a)
    lex_min_expansion(hole.b)
    # a tail of A (resp. B) is named by its numerator over qa (resp. qb)
    qa, qb = hole.a.denominator, hole.b.denominator
    ca, cb = hole.a.numerator, hole.b.numerator

    # each prefix of the common prefix ends in a state of its own, so one of
    # more than max_states symbols is refused before the loop below, whose
    # cost grows with its square.  A and B share their first k symbols when
    # floor(a 2^k) = ceil(b 2^k) - 1, which needs b - a <= 2^-k: the bit
    # lengths of (b - a) qa qb and qa qb rule that out for all but tiny holes.
    k = max_states + 1
    if ((cb * qa - ca * qb).bit_length() + k <= (qa * qb).bit_length()
            and (ca << k) // qa == ((cb << k) - 1) // qb):
        raise BudgetExceededError(
            f"endpoints of {hole} share more than {max_states} leading binary digits, "
            f"so its automaton exceeds {max_states} states"
        )

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
    # read so far ties with its first i symbols, and m0 (m1) holds bit i when
    # symbol i is 0 (1); bit cstar (a tie with the whole prefix) goes on to
    # an A tie on 0 or a B tie on 1
    m1 = sum(ch << i for i, ch in enumerate(common))
    m0 = m1 ^ ((1 << cstar) - 1)
    # a state is (tie mask, A tie, B tie), its id its place in the queue; no
    # A tie is the tail value 1 (qa) and no B tie the value 0: doubling keeps
    # them, they never kill an edge, and every real tie binds tighter
    queue = [(0, qa, 0)]
    ids = {queue[0]: 0}
    n = 1  # states so far
    trans: list[tuple[int, int]] = []
    for mask, amin, bmax in queue:
        mask |= 1  # a suffix starting at the next symbol ties with the empty prefix
        full = mask >> cstar & 1
        a2, b2 = 2 * amin, 2 * bmax
        # on 0 the path dies if the B tie reads 1 (its tail falls strictly
        # inside the hole), on 1 if the A tie reads 0; an A tie reading 1 on
        # a 0, a B tie reading 0 on a 1 and a mismatch inside the common
        # prefix are resolved: below A or above B, satisfied either way
        t0 = t1 = -1
        if b2 <= qb:
            namin = a2 if a2 < qa else qa
            if full and a_first < namin:
                namin = a_first
            nstate = ((mask & m0) << 1, namin, b2)
            t0 = ids.setdefault(nstate, n)
            if t0 == n:
                queue.append(nstate)
                n += 1
        if a2 >= qa:
            nbmax = b2 - qb if b2 > qb else 0
            if full and b_first > nbmax:
                nbmax = b_first
            nstate = ((mask & m1) << 1, a2 - qa, nbmax)
            t1 = ids.setdefault(nstate, n)
            if t1 == n:
                queue.append(nstate)
                n += 1
        trans.append((t0, t1))
        if n > max_states:
            raise BudgetExceededError(f"automaton for {hole} exceeds {max_states} states")
    comps, live = _graph_sccs(trans)
    return SurvivorAutomaton(trans, live, comps, hole)
