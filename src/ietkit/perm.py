"""Labeled permutation pairs and Rauzy-class enumeration.

A labeled permutation is a pair of orderings (top row, bottom row) of the
symbols 1..d.  The two Rauzy moves compare the last symbol of each row: the
"winner" keeps its row fixed while the loser is reinserted immediately to the
right of the winner's position in the other row.  Classes are the connected
components of the resulting directed graph.  This module owns that graph:
one process-wide compiled diagram makes each move once, and class
enumeration, the restricted sub-diagram used by the staged construction,
the construction's path searches and the induction loop all walk it.  One
breadth-first walker, ``_breadth_first``, searches it for the first three,
and reaches at most ``VERTEX_BUDGET`` vertices unless given its own budget.
"""
from __future__ import annotations

from collections import deque
from functools import total_ordering
from typing import Callable, Iterator, Sequence

from ._record import Value
from .errors import BudgetExceededError, DegeneracyError, UsageError

TOP_WINS = "top-wins"
BOTTOM_WINS = "bottom-wins"
VERTEX_BUDGET = 10**6  # the vertices a search of the diagram may reach by default


class ReducibilityError(UsageError):
    """The permutation splits into two smaller exchanges."""


@total_ordering
class LabeledPermutation(Value):
    """A pair of orderings of {1..d}; the combinatorial half of an IET.

    Equal, hashed and ordered as the tuple (top, bottom)."""

    __slots__ = ("top", "bottom")

    def __init__(self, top: tuple[int, ...], bottom: tuple[int, ...]):
        self.top = top
        self.bottom = bottom
        d = len(self.top)
        if d < 2 or sorted(self.top) != list(range(1, d + 1)) or sorted(
            self.bottom
        ) != list(range(1, d + 1)):
            raise UsageError(f"not a permutation pair of 1..d: {self.top}/{self.bottom}")

    @property
    def d(self) -> int:
        return len(self.top)

    def is_irreducible(self) -> bool:
        """True unless a proper prefix of top and bottom use the same symbols.

        The first k+1 top symbols are the first k+1 bottom ones exactly when
        the furthest bottom position among them is k, so one running maximum
        decides it in O(d)."""
        d = len(self.top)
        position = dict(zip(self.bottom, range(d)))
        reach = 0
        for k in range(d - 1):
            p = position[self.top[k]]
            if p > reach:
                reach = p
            if reach == k:
                return False
        return True

    def top_position(self, symbol: int) -> int:
        return self.top.index(symbol)

    def bottom_position(self, symbol: int) -> int:
        return self.bottom.index(symbol)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.top == other.top and self.bottom == other.bottom
        return NotImplemented

    def __hash__(self):
        return hash((self.top, self.bottom))

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return (self.top, self.bottom) < (other.top, other.bottom)
        return NotImplemented

    def __repr__(self):
        return f"({','.join(map(str, self.top))} / {','.join(map(str, self.bottom))})"


class RauzyEdge(Value):
    __slots__ = ("source", "target", "winner", "loser", "side")

    def __init__(
        self,
        source: LabeledPermutation,
        target: LabeledPermutation,
        winner: int,
        loser: int,
        side: str,  # TOP_WINS or BOTTOM_WINS
    ):
        self.source = source
        self.target = target
        self.winner = winner
        self.loser = loser
        self.side = side


class RauzyClassGraph(Value):
    __slots__ = ("vertices", "edges", "seed", "_adj")
    _fields = ("vertices", "edges", "seed")

    def __init__(
        self,
        vertices: tuple[LabeledPermutation, ...],
        edges: tuple[RauzyEdge, ...],
        seed: LabeledPermutation,
    ):
        self.vertices = vertices
        self.edges = edges
        self.seed = seed
        self._adj: dict[LabeledPermutation, tuple[list, list]] | None = None

    def _adjacency(self) -> dict[LabeledPermutation, tuple[list, list]]:
        """Per vertex, its out-edges and its in-edges, in edge order; built
        on the first query."""
        if self._adj is None:
            self._adj = {v: ([], []) for v in self.vertices}
            for e in self.edges:
                self._adj[e.source][0].append(e)
                self._adj[e.target][1].append(e)
        return self._adj

    def __contains__(self, pi: LabeledPermutation) -> bool:
        return pi in self._adjacency()

    def out_edges(self, pi: LabeledPermutation) -> list[RauzyEdge]:
        return list(self._adjacency().get(pi, ((), ()))[0])

    def in_edges(self, pi: LabeledPermutation) -> list[RauzyEdge]:
        return list(self._adjacency().get(pi, ((), ()))[1])

    def two_in_two_out(self) -> bool:
        """Whether every vertex has two out-edges and two in-edges, counted
        on the adjacency in place."""
        return all(len(o) == 2 and len(i) == 2 for o, i in self._adjacency().values())

    def to_doc(self) -> dict:
        """The graph as a JSON document: vertices, edges by vertex index,
        and the seed's index.  This is the schema of the ``classes`` graph
        file, which the CLI writes from templates; the byte test of that
        writer checks it against this document."""
        index = {v: i for i, v in enumerate(self.vertices)}
        return {
            "vertices": [
                {"top": list(v.top), "bottom": list(v.bottom)} for v in self.vertices
            ],
            "edges": [
                {
                    "source": index[e.source],
                    "target": index[e.target],
                    "winner": e.winner,
                    "loser": e.loser,
                    "side": e.side,
                }
                for e in self.edges
            ],
            "seed": index[self.seed],
        }


def hyperelliptic_permutation(d: int) -> LabeledPermutation:
    """Top 1..d over bottom d..1."""
    if d < 2:
        raise UsageError(f"alphabet size must be >= 2, got {d}")
    return LabeledPermutation(tuple(range(1, d + 1)), tuple(range(d, 0, -1)))


def special_permutations(d: int) -> tuple[LabeledPermutation, LabeledPermutation, LabeledPermutation]:
    """The three distinguished class members (pi_L, pi_R, pi_prime).

    pi_L and pi_R sit two moves to the left/right of the hyperelliptic
    permutation; pi_prime is the vertex one bottom-move before it.
    """
    if d < 4:
        raise UsageError(f"special permutations need d >= 4, got {d}")
    desc = tuple(range(d, 0, -1))
    pi_l = LabeledPermutation((1, d - 1, d) + tuple(range(2, d - 1)), desc)
    pi_r = LabeledPermutation(
        tuple(range(1, d + 1)), (d,) + tuple(range(d - 2, 0, -1)) + (d - 1,)
    )
    pi_prime = LabeledPermutation((1,) + tuple(range(3, d + 1)) + (2,), desc)
    return pi_l, pi_r, pi_prime


def rauzy_move(pi: LabeledPermutation, side: str, *, check: bool = True) -> RauzyEdge:
    """One Rauzy move; the loser is reinserted right of the winner.

    ``check=False`` skips the irreducibility check, for a caller that has
    made it already."""
    if check and not pi.is_irreducible():
        raise ReducibilityError(f"reducible permutation {pi}")
    if side == TOP_WINS:
        fixed, moved = pi.top, pi.bottom
    elif side == BOTTOM_WINS:
        fixed, moved = pi.bottom, pi.top
    else:
        raise UsageError(f"unknown side {side!r}")
    winner, loser = fixed[-1], moved[-1]
    row = list(moved[:-1])
    row.insert(row.index(winner) + 1, loser)
    # a move of a valid pair is a valid pair: build it without the checks
    target = LabeledPermutation.__new__(LabeledPermutation)
    if side == TOP_WINS:
        target.top, target.bottom = fixed, tuple(row)
    else:
        target.top, target.bottom = tuple(row), fixed
    return RauzyEdge(pi, target, winner, loser, side)


class _RunCycle:
    """The moves on one side from one vertex, as one period of a run.

    While one side keeps winning, its winner stays fixed and the losers
    cycle through the symbols right of it in the other row; after ``k``
    moves the walk is back where it started.  Step t of a run (from 0)
    starts at ``vertices[t % k]``, makes ``losers[t % k]`` lose and takes
    ``edges[t % k]``.  Symbols are 0-based.  Per symbol, ``positions`` holds
    1 + its index in ``losers``, or 0 for a symbol the run leaves alone;
    ``fixed`` lists those symbols, the winner among them."""

    __slots__ = ("side", "winner", "losers", "vertices", "edges", "positions",
                 "fixed")

    def __init__(self, side: str, winner: int, losers: tuple[int, ...],
                 vertices: tuple[int, ...], edges: tuple[RauzyEdge, ...],
                 positions: tuple[int, ...], fixed: tuple[int, ...]):
        self.side = side
        self.winner = winner
        self.losers = losers
        self.vertices = vertices
        self.edges = edges
        self.positions = positions
        self.fixed = fixed


class _RauzyDiagram:
    """The Rauzy diagram, compiled to integer vertex ids as walks reach it.

    Per id: the permutation, its 0-based last symbols and, per side, the move
    (target id, winner - 1, loser - 1, edge), made by one ``rauzy_move`` when
    first taken, and the run cycle on that side, made from the moves when
    first asked for; irreducibility is checked once per vertex, by its first
    move."""

    def __init__(self):
        self.ids: dict[LabeledPermutation, int] = {}
        self.perms: list[LabeledPermutation] = []
        self.last: list[tuple[int, int]] = []
        self.moves: list[dict[str, tuple[int, int, int, RauzyEdge]]] = []
        self.cycles: list[dict[str, _RunCycle]] = []

    def vertex(self, pi: LabeledPermutation) -> int:
        v = self.ids.get(pi)
        if v is None:
            v = self.ids[pi] = len(self.perms)
            self.perms.append(pi)
            self.last.append((pi.top[-1] - 1, pi.bottom[-1] - 1))
            self.moves.append({})
            self.cycles.append({})
        return v

    def move(self, v: int, side: str) -> tuple[int, int, int, RauzyEdge]:
        moves = self.moves[v]
        if side not in moves:
            e = rauzy_move(self.perms[v], side, check=not moves)
            moves[side] = (self.vertex(e.target), e.winner - 1, e.loser - 1, e)
        return moves[side]

    def cycle(self, v: int, side: str) -> _RunCycle:
        cycles = self.cycles[v]
        if side not in cycles:
            losers, vertices, edges = [], [], []
            u = v
            while True:
                t, w, l, e = self.move(u, side)
                losers.append(l)
                vertices.append(u)
                edges.append(e)
                if t == v:
                    break
                u = t
            symbols = range(self.perms[v].d)
            cycles[side] = _RunCycle(
                side, w, tuple(losers), tuple(vertices), tuple(edges),
                tuple(losers.index(j) + 1 if j in losers else 0 for j in symbols),
                tuple(j for j in symbols if j not in losers),
            )
        return cycles[side]


_DIAGRAM = _RauzyDiagram()  # a pure cache, shared by every walk in the process


def restricted_lhs_move(edge: RauzyEdge, d: int) -> bool:
    """The restriction rule: symbol 1 never wins and d-1, d are never compared."""
    return edge.winner not in (1, d - 1, d) and edge.loser not in (d - 1, d)


def _breadth_first(
    root: int,
    keep: Callable[[RauzyEdge], bool],
    sides: Callable[[], Sequence[str]],
    budget: int | None = None,
) -> Iterator[tuple[int, int, RauzyEdge, bool]]:
    """Breadth first from the vertex id ``root``, the moves that pass
    ``keep`` as (source id, target id, edge, new), ``new`` when the move
    first reaches its target.  Each vertex leaving the queue calls
    ``sides()`` once for the order of its two moves.  Reaching more than
    ``budget`` vertices, the root included, raises BudgetExceededError; by
    default the budget is ``VERTEX_BUDGET`` as the search starts."""
    if budget is None:
        budget = VERTEX_BUDGET
    if budget < 1:
        raise BudgetExceededError(f"vertex budget {budget} holds no seed")
    seen = {root}
    queue = deque([root])
    while queue:
        v = queue.popleft()
        for side in sides():
            t, _, _, edge = _DIAGRAM.move(v, side)
            if not keep(edge):
                continue
            if new := t not in seen:
                if len(seen) >= budget:
                    raise BudgetExceededError(
                        f"search of the Rauzy diagram exceeded vertex budget {budget}"
                    )
                seen.add(t)
                queue.append(t)
            yield v, t, edge, new


def _closure(
    seed: LabeledPermutation, keep: Callable[[RauzyEdge], bool], vertex_budget: int
) -> RauzyClassGraph:
    """The seed's closure under the moves that pass ``keep``, from the
    breadth-first walker.  The export order is built, not sorted from the
    edges: the vertices come lexicographically on (top, bottom), and the
    edges by source in that order, each source's kept moves in side order
    (bottom-wins before top-wins), so that exports do not depend on
    discovery order."""
    perms = _DIAGRAM.perms
    root = _DIAGRAM.vertex(seed)
    kept: dict[int, list[RauzyEdge]] = {root: []}  # per vertex, in side order
    walk = _breadth_first(root, keep, lambda: (BOTTOM_WINS, TOP_WINS), vertex_budget)
    for v, t, edge, new in walk:
        kept[v].append(edge)
        if new:
            kept[t] = []
    order = sorted(kept, key=lambda v: (perms[v].top, perms[v].bottom))
    vertices = tuple(perms[v] for v in order)
    edges = tuple(e for v in order for e in kept[v])
    return RauzyClassGraph(vertices, edges, seed)


def rauzy_class(
    seed: LabeledPermutation, vertex_budget: int = VERTEX_BUDGET
) -> RauzyClassGraph:
    """Breadth-first closure of the seed under both moves."""
    if not seed.is_irreducible():
        raise ReducibilityError(f"reducible seed {seed}")
    return _closure(seed, lambda e: True, vertex_budget)


def hyperelliptic_class(d: int) -> RauzyClassGraph:
    return rauzy_class(hyperelliptic_permutation(d))


def restriction_subgraph(d: int, collapse: bool = False) -> RauzyClassGraph:
    """The sub-diagram reachable from pi_L under the restricted moves.

    Restricted means: symbol 1 never wins, and symbols d-1, d are never
    compared.  The result is a copy of the (d-3)-symbol class with one extra
    pass-through vertex at pi_L; ``collapse=True`` removes that vertex and
    splices its unique in/out edges together.
    """
    if d < 5:
        raise DegeneracyError(
            "restriction sub-diagram is degenerate (single self-loop) for d < 5"
        )
    pi_l, _, _ = special_permutations(d)
    graph = _closure(pi_l, lambda e: restricted_lhs_move(e, d), VERTEX_BUDGET)
    ins, outs = graph.in_edges(pi_l), graph.out_edges(pi_l)
    if not collapse or len(ins) != 1 or len(outs) != 1:
        return graph
    (into,), (out,) = ins, outs
    # the splice keeps the in-edge's source and side, so the order holds
    spliced = RauzyEdge(into.source, out.target, into.winner, into.loser, into.side)
    edges = tuple(spliced if e == into else e for e in graph.edges if e != out)
    vertices = tuple(v for v in graph.vertices if v != pi_l)
    return RauzyClassGraph(vertices, edges, vertices[0])


def graphs_isomorphic(a: RauzyClassGraph, b: RauzyClassGraph) -> bool:
    """Digraph isomorphism ignoring symbol labels, by canonical BFS codes.

    Rauzy diagrams are small and vertex-transitive enough that trying every
    vertex of ``b`` as an image of a fixed root of ``a`` is cheap.
    """

    def code(g: RauzyClassGraph, root: LabeledPermutation, swap: bool) -> tuple:
        relabel = {TOP_WINS: BOTTOM_WINS, BOTTOM_WINS: TOP_WINS} if swap else {}
        order = {root: 0}
        queue = deque([root])
        out = []
        while queue:
            v = queue.popleft()
            row = []
            # one out-edge per side, so sorting by side alone is deterministic
            # and independent of the symbol labels
            moves = [(relabel.get(e.side, e.side), e.target) for e in g.out_edges(v)]
            for side, t in sorted(moves, key=lambda st: st[0]):
                if t not in order:
                    order[t] = len(order)
                    queue.append(t)
                row.append((side, order[t]))
            out.append(tuple(row))
        return tuple(out)

    if len(a.vertices) != len(b.vertices) or len(a.edges) != len(b.edges):
        return False
    code_a = code(a, a.vertices[0], swap=False)
    return any(
        code(b, v, swap) == code_a for v in b.vertices for swap in (False, True)
    )
