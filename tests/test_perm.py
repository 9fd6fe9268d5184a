"""Permutation pairs, Rauzy moves, class enumeration, and subgraphs."""
from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from ietkit.errors import BudgetExceededError, DegeneracyError, UsageError
from ietkit.perm import (
    BOTTOM_WINS,
    TOP_WINS,
    LabeledPermutation,
    ReducibilityError,
    graphs_isomorphic,
    hyperelliptic_class,
    hyperelliptic_permutation,
    rauzy_class,
    rauzy_move,
    restriction_subgraph,
    special_permutations,
)


def test_hyperelliptic_shape():
    pi = hyperelliptic_permutation(4)
    assert pi.top == (1, 2, 3, 4)
    assert pi.bottom == (4, 3, 2, 1)
    assert pi.is_irreducible()


def test_alphabet_too_small():
    with pytest.raises(UsageError):
        hyperelliptic_permutation(1)


def test_reducible_detected():
    pi = LabeledPermutation((1, 2, 3), (2, 1, 3))
    assert not pi.is_irreducible()
    with pytest.raises(ReducibilityError):
        rauzy_class(pi)


def test_invalid_rows_rejected():
    with pytest.raises(UsageError):
        LabeledPermutation((1, 2), (1, 1))


def test_moves_preserve_class_membership():
    graph = hyperelliptic_class(4)
    for pi in graph.vertices:
        for side in (TOP_WINS, BOTTOM_WINS):
            assert rauzy_move(pi, side).target in graph


def test_move_winner_loser():
    pi = hyperelliptic_permutation(2)
    top = rauzy_move(pi, TOP_WINS)
    assert (top.winner, top.loser) == (2, 1)
    bottom = rauzy_move(pi, BOTTOM_WINS)
    assert (bottom.winner, bottom.loser) == (1, 2)


@pytest.mark.parametrize("d,size", [(2, 1), (3, 3), (4, 7), (5, 15)])
def test_class_sizes(d, size):
    assert len(hyperelliptic_class(d).vertices) == size


def test_every_vertex_two_in_two_out():
    graph = hyperelliptic_class(4)
    for v in graph.vertices:
        assert len(graph.out_edges(v)) == 2
        assert len(graph.in_edges(v)) == 2


@pytest.mark.parametrize("graph", [
    *(hyperelliptic_class(d) for d in range(2, 7)),
    *(restriction_subgraph(d, collapse) for d in (5, 6, 7) for collapse in (False, True)),
])
def test_two_in_two_out_counts_in_place(monkeypatch, graph):
    expected = all(
        len(graph.out_edges(v)) == 2 and len(graph.in_edges(v)) == 2
        for v in graph.vertices
    )

    def copied(self, pi):
        raise AssertionError("the degree check copied an adjacency list")

    monkeypatch.setattr(type(graph), "out_edges", copied)
    monkeypatch.setattr(type(graph), "in_edges", copied)
    assert graph.two_in_two_out() == expected


def test_special_permutations_in_class():
    graph = hyperelliptic_class(5)
    pi_l, pi_r, pi_prime = special_permutations(5)
    for pi in (pi_l, pi_r, pi_prime):
        assert pi in graph


def test_budget_enforced():
    with pytest.raises(BudgetExceededError):
        rauzy_class(hyperelliptic_permutation(5), vertex_budget=3)


def test_class_json_is_deterministic():
    a = json.dumps(rauzy_class(hyperelliptic_permutation(4)).to_doc(), sort_keys=True)
    b = json.dumps(rauzy_class(special_permutations(4)[0]).to_doc(), sort_keys=True)
    # same class discovered from different seeds serializes identically
    # apart from the recorded seed vertex
    da, db = json.loads(a), json.loads(b)
    assert da["vertices"] == db["vertices"]
    assert da["edges"] == db["edges"]


def test_class_doc_is_the_parsed_json():
    graph = rauzy_class(hyperelliptic_permutation(5))
    assert graph.to_doc() == json.loads(json.dumps(graph.to_doc(), sort_keys=True))


def prefix_set_irreducible(pi):
    """The definition: no proper prefix of top uses the same symbols as the
    bottom prefix of the same length."""
    return all(set(pi.top[:k]) != set(pi.bottom[:k]) for k in range(1, pi.d))


@st.composite
def permutation_pairs(draw):
    """Pairs for d = 2..9; a third of them glue two smaller pairs, side by
    side, so that reducible pairs are common at every d."""
    d = draw(st.integers(min_value=2, max_value=9))
    top = draw(st.permutations(range(1, d + 1)))
    if draw(st.integers(0, 2)) == 0:
        k = draw(st.integers(min_value=1, max_value=d - 1))
        bottom = draw(st.permutations(top[:k])) + draw(st.permutations(top[k:]))
    else:
        bottom = draw(st.permutations(range(1, d + 1)))
    return LabeledPermutation(tuple(top), tuple(bottom))


@given(permutation_pairs())
def test_irreducible_matches_prefix_sets(pi):
    irreducible = pi.is_irreducible()
    assert irreducible == prefix_set_irreducible(pi)
    if irreducible:
        rauzy_move(pi, TOP_WINS)
        return
    for side in (TOP_WINS, BOTTOM_WINS):
        with pytest.raises(ReducibilityError):
            rauzy_move(pi, side)
    with pytest.raises(ReducibilityError):
        rauzy_class(pi)


def test_restriction_subgraph_degenerate_below_five():
    with pytest.raises(DegeneracyError):
        restriction_subgraph(4)


@pytest.mark.parametrize("d", [5, 6, 7])
def test_restriction_subgraph_collapses_to_smaller_class(d):
    collapsed = restriction_subgraph(d, collapse=True)
    assert graphs_isomorphic(collapsed, hyperelliptic_class(d - 3))


def test_classes_of_different_sizes_are_not_isomorphic():
    assert not graphs_isomorphic(hyperelliptic_class(4), hyperelliptic_class(5))


def test_restriction_subgraph_keeps_entry_vertex():
    full = restriction_subgraph(6, collapse=False)
    pi_l, _, _ = special_permutations(6)
    assert pi_l in full
    assert len(full.vertices) == len(hyperelliptic_class(3).vertices) + 1


@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=50))
def test_walks_stay_in_class_property(d, seed):
    """Random walks never leave the class, and every visited vertex seeds
    the same class."""
    import random

    rng = random.Random(seed)
    graph = hyperelliptic_class(d)
    pi = hyperelliptic_permutation(d)
    for _ in range(8):
        side = rng.choice([TOP_WINS, BOTTOM_WINS])
        pi = rauzy_move(pi, side).target
        assert pi in graph
    assert set(rauzy_class(pi).vertices) == set(graph.vertices)


SEED_1386 = LabeledPermutation((1, 2, 3, 4, 5, 6, 7), (2, 3, 4, 6, 5, 7, 1))


def oracle_closure(seed, keep=lambda e: True):
    """Plain breadth-first closure, one ``rauzy_move`` per expansion."""
    seen, queue, edges = {seed}, [seed], []
    while queue:
        pi = queue.pop(0)
        for side in (TOP_WINS, BOTTOM_WINS):
            e = rauzy_move(pi, side)
            if keep(e):
                edges.append(e)
                if e.target not in seen:
                    seen.add(e.target)
                    queue.append(e.target)
    return (sorted(seen, key=lambda v: (v.top, v.bottom)),
            sorted(edges, key=lambda e: (e.source.top, e.source.bottom, e.side)))


@pytest.mark.parametrize(
    "seed", [hyperelliptic_permutation(d) for d in (4, 5, 6, 7)] + [SEED_1386],
    ids=repr,
)
def test_class_matches_move_oracle(seed):
    vertices, edges = oracle_closure(seed)
    graph = rauzy_class(seed)
    assert list(graph.vertices) == vertices
    assert list(graph.edges) == edges
    assert graph.seed == seed
    for v in vertices:
        assert v in graph
        assert graph.out_edges(v) == [e for e in edges if e.source == v]
        assert graph.in_edges(v) == [e for e in edges if e.target == v]
    outsider = LabeledPermutation(seed.top, seed.top)  # reducible: in no class
    assert outsider not in graph
    assert graph.out_edges(outsider) == [] and graph.in_edges(outsider) == []


@pytest.mark.parametrize("d", [5, 6, 7])
def test_restriction_subgraph_matches_move_oracle(d):
    pi_l = special_permutations(d)[0]

    def restricted(e):
        return e.winner != 1 and not {e.winner, e.loser} & {d - 1, d}

    vertices, edges = oracle_closure(pi_l, restricted)
    sub = restriction_subgraph(d)
    assert (list(sub.vertices), list(sub.edges), sub.seed) == (vertices, edges, pi_l)


def test_second_enumeration_makes_no_moves(monkeypatch):
    import ietkit.perm as perm

    calls = []

    def counting(pi, side, **kwargs):
        calls.append(pi)
        return rauzy_move(pi, side, **kwargs)

    monkeypatch.setattr(perm, "rauzy_move", counting)
    first = rauzy_class(SEED_1386)
    assert len(calls) <= 2 * len(first.vertices)
    calls.clear()
    again = rauzy_class(SEED_1386)
    assert calls == []
    assert again == first


def test_diagram_checks_irreducibility_once_per_vertex(monkeypatch):
    import ietkit.perm as perm
    from ietkit.induction import _Walk

    monkeypatch.setattr(perm, "_DIAGRAM", perm._RauzyDiagram())
    calls = []
    is_irreducible = LabeledPermutation.is_irreducible

    def counting(pi):
        calls.append(pi)
        return is_irreducible(pi)

    monkeypatch.setattr(LabeledPermutation, "is_irreducible", counting)
    assert len(rauzy_class(SEED_1386).vertices) == 1386
    assert len(calls) <= 1387  # the seed's own check, then one per vertex
    reducible = LabeledPermutation((1, 2, 3, 4), (2, 1, 4, 3))
    for side in (TOP_WINS, BOTTOM_WINS):
        with pytest.raises(ReducibilityError):
            rauzy_move(reducible, side)
    with pytest.raises(ReducibilityError):
        rauzy_class(reducible)
    with pytest.raises(ReducibilityError):
        _Walk(reducible)
    # a vertex that is known but not compiled is still checked by its first move
    v = perm._DIAGRAM.vertex(reducible)
    for side in (TOP_WINS, BOTTOM_WINS):
        with pytest.raises(ReducibilityError):
            perm._DIAGRAM.move(v, side)


def test_budget_below_one_holds_no_seed():
    with pytest.raises(BudgetExceededError):
        rauzy_class(hyperelliptic_permutation(2), vertex_budget=0)
    assert len(rauzy_class(hyperelliptic_permutation(2), vertex_budget=1).vertices) == 1


def test_moved_permutation_is_the_constructed_value():
    """A move builds its target without the constructor's checks; it must
    still be equal to, hash like and order like the same pair built by the
    constructor, and unequal to any other class."""
    vertices = rauzy_class(SEED_1386).vertices
    for pi in vertices[:200]:
        for side in (TOP_WINS, BOTTOM_WINS):
            moved = rauzy_move(pi, side).target
            built = LabeledPermutation(moved.top, moved.bottom)
            assert moved == built and not moved != built
            assert hash(moved) == hash(built) == hash((built.top, built.bottom))
            assert {moved: 1}[built] == 1
            assert moved != (moved.top, moved.bottom)
            assert moved.__eq__((moved.top, moved.bottom)) is NotImplemented
            assert moved != rauzy_move(pi, side)
    key = lambda v: (v.top, v.bottom)  # noqa: E731
    shuffled = sorted(vertices, key=lambda v: hash(v))
    assert sorted(shuffled) == sorted(shuffled, key=key) == list(vertices)
    moved = [rauzy_move(pi, TOP_WINS).target for pi in vertices[:40]]
    for a in moved:
        for b in vertices[:40]:  # both orders, and equal pairs
            assert (a < b, a <= b, a > b, a >= b, a == b) == (
                key(a) < key(b), key(a) <= key(b), key(a) > key(b),
                key(a) >= key(b), key(a) == key(b),
            )
    with pytest.raises(TypeError):
        vertices[0] < (vertices[0].top, vertices[0].bottom)
