"""Noise rejection's adjacency keeps neighbour lists with set semantics."""

import copy
import random

from kglogic.synthgen import _Adjacency

RELATIONS = ("R1", "R2", "R3")
EDGES = [("a", "R1", "b"), ("a", "R1", "c"), ("c", "R2", "b"), ("d", "R1", "b")]


def _adjacency(edges=EDGES):
    adj = _Adjacency()
    for edge in edges:
        adj.add(*edge)
    return adj


def _groups(adj):
    """succ and pred as neighbour sets, without the groups a remove emptied."""
    return [
        {(r, v): set(ws) for r, by_v in side.items() for v, ws in by_v.items() if ws}
        for side in (adj.succ, adj.pred)
    ]


def test_duplicate_add_changes_nothing():
    adj = _Adjacency()
    assert [adj.add(*edge) for edge in EDGES] == [True] * len(EDGES)
    succ, pred = copy.deepcopy(adj.succ), copy.deepcopy(adj.pred)
    for edge in EDGES:
        assert adj.add(*edge) is False
    assert adj.succ == succ and adj.pred == pred
    assert list(adj.out("R1", "a")) == ["b", "c"]
    assert adj.in_count("R1", "b") == 2
    assert adj.in_count("R2", "b") == 1


def test_remove_of_an_absent_edge_is_a_no_op():
    adj = _adjacency()
    succ, pred = copy.deepcopy(adj.succ), copy.deepcopy(adj.pred)
    # absent tail, absent head, absent relation, and the reverse of an edge
    for edge in (("a", "R1", "d"), ("z", "R1", "b"), ("a", "R5", "b"),
                 ("b", "R1", "a")):
        adj.remove(*edge)
    assert adj.succ == succ and adj.pred == pred


def test_add_then_remove_restores_the_neighbour_sets():
    adj = _adjacency()
    before = _groups(adj)
    for edge in (("a", "R1", "d"), ("b", "R2", "a"), ("z", "R3", "y"),
                 ("c", "R1", "b")):
        adj.add(*edge)
        assert edge[2] in adj.out(edge[1], edge[0])
        adj.remove(*edge)
        assert edge[2] not in adj.out(edge[1], edge[0])
        assert _groups(adj) == before


def test_out_of_an_unknown_key_is_empty_and_stays_empty():
    adj = _adjacency()
    unknown_entity = adj.out("R1", "z")
    unknown_relation = adj.out("R4", "a")
    assert len(unknown_entity) == 0 and len(unknown_relation) == 0
    adj.add("z", "R1", "a")
    adj.add("a", "R4", "b")
    assert len(unknown_entity) == 0 and len(unknown_relation) == 0
    assert list(adj.out("R1", "z")) == ["a"]
    assert list(adj.out("R4", "a")) == ["b"]
    assert adj.outs("R3", ["z", "y"]) == set()
    assert adj.in_count("R3", "z") == 0


def test_random_adds_and_removes_equal_a_triple_set():
    """out, outs and in_count equal a plain triple set's under random adds
    and removes, duplicates and absent edges included."""
    rng = random.Random(11)
    names = [f"e{i}" for i in range(6)]
    for _ in range(50):
        adj, triples = _Adjacency(), set()
        for _ in range(rng.randint(1, 80)):
            edge = (rng.choice(names), rng.choice(RELATIONS), rng.choice(names))
            if rng.random() < 0.6:
                adj.add(*edge)
                triples.add(edge)
            else:
                adj.remove(*edge)
                triples.discard(edge)
        for r in RELATIONS:
            for v in names:
                out = adj.out(r, v)
                assert len(out) == len(set(out))
                assert set(out) == {t for h, s, t in triples if (h, s) == (v, r)}
                assert adj.in_count(r, v) == sum(
                    (s, t) == (r, v) for _, s, t in triples
                )
            assert adj.outs(r, names[:3]) == {
                t for h, s, t in triples if s == r and h in names[:3]
            }
