"""Noise rejection's adjacency keeps neighbour lists with set semantics."""

import copy
import random

from kglogic.synthgen import _Adjacency

RELATIONS = ("R1", "R2", "R3")
A, B, C, D, Y, Z = range(6)  # entity ids
EDGES = [(A, "R1", B), (A, "R1", C), (C, "R2", B), (D, "R1", B)]


def _adjacency(edges=EDGES):
    adj = _Adjacency(6, RELATIONS + ("R4", "R5"))
    for edge in edges:
        adj.add(*edge)
    return adj


def _groups(adj):
    """succ and pred as neighbour sets, without the groups a remove emptied,
    and the heads of the successor groups in creation order."""
    return [
        {(r, v): set(ws) for r, by_v in side.items() for v, ws in enumerate(by_v) if ws}
        for side in (adj.succ, adj.pred)
    ] + [{r: list(by_head) for r, by_head in adj.created.items()}]


def test_duplicate_add_changes_nothing():
    adj = _Adjacency(6, RELATIONS)
    assert [adj.add(*edge) for edge in EDGES] == [True] * len(EDGES)
    state = copy.deepcopy((adj.succ, adj.pred, adj.created))
    for edge in EDGES:
        assert adj.add(*edge) is False
    assert (adj.succ, adj.pred, adj.created) == state
    assert list(adj.succ["R1"][A]) == [B, C]
    assert len(adj.pred["R1"][B]) == 2
    assert len(adj.pred["R2"][B]) == 1


def test_remove_of_an_absent_edge_is_a_no_op():
    adj = _adjacency()
    state = copy.deepcopy((adj.succ, adj.pred, adj.created))
    # absent tail, absent head, a relation without edges, and the reverse of
    # an edge
    for edge in ((A, "R1", D), (Z, "R1", B), (A, "R5", B), (B, "R1", A)):
        adj.remove(*edge)
    assert (adj.succ, adj.pred, adj.created) == state


def test_add_then_remove_restores_the_neighbour_sets():
    adj = _adjacency()
    before = _groups(adj)
    for edge in ((A, "R1", D), (B, "R2", A), (Z, "R3", Y), (C, "R1", B)):
        adj.add(*edge)
        assert edge[2] in adj.succ[edge[1]][edge[0]]
        adj.remove(*edge)
        assert edge[2] not in adj.succ[edge[1]][edge[0]]
        assert _groups(adj) == before


def test_out_of_an_unknown_key_is_empty_and_stays_empty():
    """A head without a group, and a relation without edges, read as empty,
    and a group made later does not show through what they returned."""
    adj = _adjacency()
    unknown_entity = adj.succ["R1"][Z]
    unknown_relation = adj.succ["R4"][A]
    assert len(unknown_entity) == 0 and len(unknown_relation) == 0
    adj.add(Z, "R1", A)
    adj.add(A, "R4", B)
    assert len(unknown_entity) == 0 and len(unknown_relation) == 0
    assert list(adj.succ["R1"][Z]) == [A]
    assert list(adj.succ["R4"][A]) == [B]
    assert {t for v in (Z, Y) for t in adj.succ["R3"][v]} == set()
    assert len(adj.pred["R3"][Z]) == 0


def test_random_adds_and_removes_equal_a_triple_set():
    """Successor groups, their unions and predecessor counts equal a plain
    triple set's under random adds and removes, duplicates and absent edges
    included, and `created` holds each non-empty successor group, in the
    order the groups were created."""
    rng = random.Random(11)
    names = list(range(6))
    for _ in range(50):
        adj, triples, created = _Adjacency(6, RELATIONS), set(), {}
        for _ in range(rng.randint(1, 80)):
            edge = (rng.choice(names), rng.choice(RELATIONS), rng.choice(names))
            group = edge[:2]
            if rng.random() < 0.6:
                adj.add(*edge)
                triples.add(edge)
                created.setdefault(group, None)
            else:
                adj.remove(*edge)
                triples.discard(edge)
                if not any(triple[:2] == group for triple in triples):
                    created.pop(group, None)
        for r in RELATIONS:
            for v in names:
                out = adj.succ[r][v]
                assert len(out) == len(set(out))
                assert set(out) == {t for h, s, t in triples if (h, s) == (v, r)}
                assert len(adj.pred[r][v]) == sum(
                    (s, t) == (r, v) for _, s, t in triples
                )
            assert {u for v in names[:3] for u in adj.succ[r][v]} == {
                t for h, s, t in triples if s == r and h in names[:3]
            }
            assert list(adj.created[r]) == [h for h, s in created if s == r]
            assert all(adj.created[r][h] is adj.succ[r][h] for h in adj.created[r])
