"""Labeled permutation pairs and Rauzy-class enumeration.

A labeled permutation is a pair of orderings (top row, bottom row) of the
symbols 1..d.  The two Rauzy moves compare the last symbol of each row: the
"winner" keeps its row fixed while the loser is reinserted immediately to the
right of the winner's position in the other row.  Classes are the connected
components of the resulting directed graph; this module enumerates them by
breadth-first search and extracts the restricted sub-diagram used by the
staged construction.
"""
from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from .errors import BudgetExceededError, DegeneracyError, UsageError

TOP_WINS = "top-wins"
BOTTOM_WINS = "bottom-wins"


class ReducibilityError(UsageError):
    """The permutation splits into two smaller exchanges."""


@dataclass(frozen=True, order=True)
class LabeledPermutation:
    """A pair of orderings of {1..d}; the combinatorial half of an IET."""

    top: tuple[int, ...]
    bottom: tuple[int, ...]

    def __post_init__(self):
        d = len(self.top)
        if d < 2 or sorted(self.top) != list(range(1, d + 1)) or sorted(
            self.bottom
        ) != list(range(1, d + 1)):
            raise UsageError(f"not a permutation pair of 1..d: {self.top}/{self.bottom}")

    @property
    def d(self) -> int:
        return len(self.top)

    def is_irreducible(self) -> bool:
        """True unless a proper prefix of top and bottom use the same symbols."""
        seen_top: set[int] = set()
        seen_bottom: set[int] = set()
        for k in range(self.d - 1):
            seen_top.add(self.top[k])
            seen_bottom.add(self.bottom[k])
            if seen_top == seen_bottom:
                return False
        return True

    def top_position(self, symbol: int) -> int:
        return self.top.index(symbol)

    def bottom_position(self, symbol: int) -> int:
        return self.bottom.index(symbol)

    def __repr__(self):
        return f"({','.join(map(str, self.top))} / {','.join(map(str, self.bottom))})"


@dataclass(frozen=True)
class RauzyEdge:
    source: LabeledPermutation
    target: LabeledPermutation
    winner: int
    loser: int
    side: str  # TOP_WINS or BOTTOM_WINS


@dataclass(frozen=True)
class RauzyClassGraph:
    vertices: tuple[LabeledPermutation, ...]
    edges: tuple[RauzyEdge, ...]
    seed: LabeledPermutation

    def __contains__(self, pi: LabeledPermutation) -> bool:
        return pi in set(self.vertices)

    def out_edges(self, pi: LabeledPermutation) -> list[RauzyEdge]:
        return [e for e in self.edges if e.source == pi]

    def in_edges(self, pi: LabeledPermutation) -> list[RauzyEdge]:
        return [e for e in self.edges if e.target == pi]

    def to_json(self) -> str:
        index = {v: i for i, v in enumerate(self.vertices)}
        doc = {
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
        return json.dumps(doc, sort_keys=True)


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


def rauzy_move(pi: LabeledPermutation, side: str) -> RauzyEdge:
    """One Rauzy move; the loser is reinserted right of the winner."""
    if not pi.is_irreducible():
        raise ReducibilityError(f"reducible permutation {pi}")
    i, j = pi.top[-1], pi.bottom[-1]
    if side == TOP_WINS:
        winner, loser = i, j
        new_bottom = list(pi.bottom[:-1])
        new_bottom.insert(new_bottom.index(winner) + 1, loser)
        target = LabeledPermutation(pi.top, tuple(new_bottom))
    elif side == BOTTOM_WINS:
        winner, loser = j, i
        new_top = list(pi.top[:-1])
        new_top.insert(new_top.index(winner) + 1, loser)
        target = LabeledPermutation(tuple(new_top), pi.bottom)
    else:
        raise UsageError(f"unknown side {side!r}")
    return RauzyEdge(pi, target, winner, loser, side)


def rauzy_class(
    seed: LabeledPermutation, vertex_budget: int = 10**6
) -> RauzyClassGraph:
    """Breadth-first closure of the seed under both moves.

    Vertex order in the result is lexicographic on (top, bottom) so that
    exports are deterministic regardless of discovery order.
    """
    if not seed.is_irreducible():
        raise ReducibilityError(f"reducible seed {seed}")
    seen = {seed}
    queue = deque([seed])
    edges: list[RauzyEdge] = []
    while queue:
        pi = queue.popleft()
        for side in (TOP_WINS, BOTTOM_WINS):
            edge = rauzy_move(pi, side)
            edges.append(edge)
            if edge.target not in seen:
                if len(seen) >= vertex_budget:
                    raise BudgetExceededError(
                        f"class enumeration exceeded vertex budget {vertex_budget}"
                    )
                seen.add(edge.target)
                queue.append(edge.target)
    vertices = tuple(sorted(seen, key=lambda v: (v.top, v.bottom)))
    edges.sort(key=lambda e: (e.source.top, e.source.bottom, e.side))
    return RauzyClassGraph(vertices, tuple(edges), seed)


@lru_cache(maxsize=None)
def _cached_class(seed: LabeledPermutation) -> RauzyClassGraph:
    return rauzy_class(seed)


def hyperelliptic_class(d: int) -> RauzyClassGraph:
    return _cached_class(hyperelliptic_permutation(d))


def _lhs_restricted_moves(pi: LabeledPermutation, d: int) -> list[RauzyEdge]:
    """Moves where 1 never wins and d-1, d are not involved at all."""
    out = []
    for side in (TOP_WINS, BOTTOM_WINS):
        edge = rauzy_move(pi, side)
        if edge.winner != 1 and not {edge.winner, edge.loser} & {d - 1, d}:
            out.append(edge)
    return out


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
    seen = {pi_l}
    queue = deque([pi_l])
    edges: list[RauzyEdge] = []
    while queue:
        pi = queue.popleft()
        for edge in _lhs_restricted_moves(pi, d):
            edges.append(edge)
            if edge.target not in seen:
                seen.add(edge.target)
                queue.append(edge.target)
    if collapse:
        ins = [e for e in edges if e.target == pi_l]
        outs = [e for e in edges if e.source == pi_l]
        if len(ins) == 1 and len(outs) == 1:
            spliced = RauzyEdge(
                ins[0].source, outs[0].target, ins[0].winner, ins[0].loser, ins[0].side
            )
            edges = [e for e in edges if pi_l not in (e.source, e.target)]
            edges.append(spliced)
            seen.discard(pi_l)
    vertices = tuple(sorted(seen, key=lambda v: (v.top, v.bottom)))
    edges.sort(key=lambda e: (e.source.top, e.source.bottom, e.side))
    seed = pi_l if pi_l in seen else vertices[0]
    return RauzyClassGraph(vertices, tuple(edges), seed)


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
        adj: dict[LabeledPermutation, list[tuple[str, LabeledPermutation]]] = {}
        for e in g.edges:
            side = relabel.get(e.side, e.side)
            adj.setdefault(e.source, []).append((side, e.target))
        while queue:
            v = queue.popleft()
            row = []
            # one out-edge per side, so sorting by side alone is deterministic
            # and independent of the symbol labels
            for side, t in sorted(adj.get(v, []), key=lambda st: st[0]):
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
