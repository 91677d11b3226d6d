"""Finite automaton recognizing survivor codings of a hole.

For an open hole (a, b) with rational endpoints, a 0-1 sequence w codes a
surviving orbit exactly when every tail sigma^k w has value outside (a, b).
Writing A for the lexicographically largest representation of a and B for the
lexicographically smallest representation of b, this is the condition

    for every k:   sigma^k w <= A   or   sigma^k w >= B

and it can be tracked with finitely many suffix-match states because A and B
are eventually periodic.  Each state records the longest prefix of the
common prefix of A and B that the input read so far ends with, as one KMP
border length (Knuth, Morris & Pratt 1977): the shorter prefixes it ends
with are that prefix's border chain, so one int names every such tie.  It
also records the binding tie against each endpoint; a tie that breaks
upward past A while still below B pins the tail value strictly inside the
hole and kills the path.  A tie is named by the value of the endpoint tail
still to match, as its numerator over that endpoint's denominator: the tail
reads 1 when the value is at least (A) or above (B) one half, and moves on
by doubling.  No two tails of one word are the two expansions of a dyadic
rational, so lexicographic order on the tails is the numeric order of their
numerators.  Ties against A (resp. B) are conjunctive constraints, so only
the binding one -- the smallest (resp. largest) remaining tail -- needs to be
kept, which bounds the state count by a polynomial in the expansion lengths.
Each state reads 0 and 1 once: a B tie whose tail reads 1 kills the 0-edge
(the tail falls strictly inside the hole), an A tie whose tail reads 0 kills
the 1-edge, and otherwise both ties move on by doubling.  So the build does
constant work per state and edge, whatever the period.  It reads no symbol
of an endpoint expansion: it only checks the expansion budgets of
``dbhole.rationals``, which depend on nothing but the denominator, once for
each distinct denominator of the two endpoints.

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

MAX_STATES = 1_000_000  # most states one build_automaton() call makes


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


class SurvivorAutomaton(namedtuple("SurvivorAutomaton", "transitions live components")):
    """Deterministic partial automaton over {0, 1}.

    ``transitions[s]`` is a pair (target on 0, target on 1) with -1 for a
    missing edge.  ``live[s]`` marks states with an infinite outgoing path;
    infinite paths from the start state 0 are exactly the surviving codings.
    ``components`` lists the strongly connected components with an internal
    edge, in reverse topological order, as (states, is_cycle) pairs; every
    state on a cycle is in one.  A simple cycle lists its states in order.
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


def _border_steps(head: int, cstar: int) -> tuple[list[int], list[int]]:
    """KMP step tables (Knuth, Morris & Pratt 1977) of the cstar-digit word
    ``head``: entry j of the first (second) is the border after reading 0 (1)
    at border j.

    The border j is the longest prefix of the word that the input read so
    far ends with, and the shorter prefixes it ends with are exactly j's
    border chain.  r walks the border reached by the word's own digits 1 to
    j - 1, whose row a mismatch at j falls back to.  At j == cstar (the
    whole word) no digit extends the match, so both fall back.
    """
    step = [0] * (cstar + 1), [0] * (cstar + 1)
    r = 0
    for j, c in enumerate(map(int, bin(head | 1 << cstar)[3:])):
        step[0][j], step[1][j] = step[0][r], step[1][r]
        step[c][j] = j + 1
        if j:
            r = step[c][r]
    step[0][cstar], step[1][cstar] = step[0][r], step[1][r]
    return step


def build_automaton(hole: Hole) -> SurvivorAutomaton:
    """Automaton whose infinite paths are exactly the survivor codings of the hole.

    A path dies at the first symbol that decides some tail strictly between
    the two endpoint expansions; boundary-valued tails survive, matching the
    openness of the hole.  More than ``MAX_STATES`` states raise
    BudgetExceededError, before the build when the endpoints' common prefix
    alone is longer.  So do the expansion budgets of ``dbhole.rationals``,
    checked once per distinct endpoint denominator, a's first.
    """
    max_states = MAX_STATES  # read once per call, a local in the loop
    # a tail of A (resp. B) is named by its numerator over qa (resp. qb)
    qa, qb = hole.a.denominator, hole.b.denominator
    # words unused; kept for their expansion budgets and perfbench's expand
    # span.  The budgets read only the denominator, so b is expanded only
    # when its denominator differs from a's
    lex_max_expansion(hole.a)
    if qb != qa:
        lex_min_expansion(hole.b)
    ca, cb = hole.a.numerator, hole.b.numerator

    # A's first k symbols read floor(a 2^k) and B's read ceil(b 2^k) - 1, so
    # they share cstar = k - bitlen(x ^ y) of them.  Sharing c symbols needs
    # b - a <= 2^-c, which puts c below the window k; k is cut at
    # MAX_STATES + 2, since a prefix of more than MAX_STATES symbols (each
    # ending in a state of its own) is refused before the build.
    k = min((qa * qb).bit_length() - (cb * qa - ca * qb).bit_length() + 2, max_states + 2)
    x, y = (ca << k) // qa, ((cb << k) - 1) // qb
    cstar = k - (x ^ y).bit_length()
    if cstar > max_states:
        raise BudgetExceededError(
            f"endpoints of {hole} share more than {max_states} leading binary digits, "
            f"so its automaton exceeds {max_states} states"
        )
    # the prefix, and the endpoint tails after it; A and B differ since
    # a < b, and at the first difference A carries 0, B carries 1
    head = x >> (k - cstar)
    ca, cb = (ca << cstar) - head * qa, (cb << cstar) - head * qb
    a_first = 2 * ca
    b_first = 2 * cb - qb

    step0, step1 = _border_steps(head, cstar)
    # a state is (KMP border, A tie, B tie), its id its place in the queue; no
    # A tie is the tail value 1 (qa) and no B tie the value 0: doubling keeps
    # them, they never kill an edge, and every real tie binds tighter
    queue = [(0, qa, 0)]
    ids = {queue[0]: 0}
    n = 1  # states so far
    trans: list[tuple[int, int]] = []
    for j, amin, bmax in queue:
        full = j == cstar
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
            nstate = (step0[j], namin, b2)
            t0 = ids.setdefault(nstate, n)
            if t0 == n:
                queue.append(nstate)
                n += 1
        if a2 >= qa:
            nbmax = b2 - qb if b2 > qb else 0
            if full and b_first > nbmax:
                nbmax = b_first
            nstate = (step1[j], a2 - qa, nbmax)
            t1 = ids.setdefault(nstate, n)
            if t1 == n:
                queue.append(nstate)
                n += 1
        trans.append((t0, t1))
        if n > max_states:
            raise BudgetExceededError(f"automaton for {hole} exceeds {max_states} states")
    # the index is done with: the SCC pass peaks at its own arrays and the output
    del ids, queue, step0, step1
    comps, live = _graph_sccs(trans)
    return SurvivorAutomaton(trans, live, comps)
