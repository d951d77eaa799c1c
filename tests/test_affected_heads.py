"""Noise rejection rechecks every head a new edge can change."""

import random

import pytest

from kglogic import FormulaArena, parse
from kglogic.synthgen import _RULES, _Adjacency, _affected_heads, _back_walks, _Instance

RELATIONS = ("R1", "R2", "R3", "R4", "R5")
CHECKS = list(dict.fromkeys(c for rule in _RULES.values() for c in (rule.el, rule.ql)))


@pytest.mark.parametrize("check", CHECKS, ids=lambda c: c.tails.__name__)
def test_every_changed_head_is_affected(check):
    """On random graphs over R1..R5, every entity a head, a new edge changes
    check.tails only at heads that _affected_heads returns."""
    arena = FormulaArena()
    walks = _back_walks(arena, [parse(check.text, arena)], "h")
    rng = random.Random(7)
    cases = changed = 0
    for _ in range(400):
        n = rng.randint(3, 9)
        ids = list(range(n))
        heads = [_Instance(v, {"head": v}, [], ()) for v in ids]
        adj = _Adjacency(n, RELATIONS)
        for _ in range(rng.randint(n, 6 * n)):
            adj.add(rng.choice(ids), rng.choice(RELATIONS), rng.choice(ids))
        before = {v: check.tails(adj, v) for v in ids}
        for _ in range(10):
            u, rel, w = rng.choice(ids), rng.choice(RELATIONS), rng.choice(ids)
            if w in adj.succ[rel][u]:
                continue
            adj.add(u, rel, w)
            affected = _affected_heads(adj, (u, w), heads, walks.get(rel, ()))
            affected_ids = {inst.roles["head"] for inst in affected}
            for v in ids:
                cases += 1
                if check.tails(adj, v) != before[v]:
                    changed += 1
                    assert v in affected_ids, (check.text, (u, rel, w), v)
            adj.remove(u, rel, w)
    assert cases > 20000 and changed > 100
