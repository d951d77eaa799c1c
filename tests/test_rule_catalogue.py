"""The generator's rule catalogue and the fast evaluators it names."""

import random
from itertools import product

import pytest

from kglogic import (
    SUPPORT_RELATIONS,
    U_QUERY_ONLY_TEXT,
    FormulaArena,
    TripleStore,
    diamond_depth,
    model_check,
    parse,
)
from kglogic.synthgen import _RULES, _Adjacency

RELATIONS = ("R1", "R2", "R3", "R4", "R5")


def test_public_values_derived_from_catalogue():
    assert SUPPORT_RELATIONS == {
        "C": ("R1", "R2", "R3"),
        "I": ("R1", "R2", "R3", "R4"),
        "U": ("R1", "R2", "R3", "R4", "R5"),
    }
    assert U_QUERY_ONLY_TEXT == "(<R4>=1 <R2>=1 <R1>=1 @h & <R5>=1 <R3>=1 <R1>=1 @h)"
    arena = FormulaArena()
    for rule in _RULES.values():
        for check in (rule.el, rule.ql):
            # noise rejection walks back one hop fewer than this from a new edge
            assert diamond_depth(arena, parse(check.text, arena)) == 3


@pytest.mark.parametrize(
    "kind, decoys",
    [(k, d) for k, rule in _RULES.items() for d in (False, True)
     if rule.decoy[0] or not d],
)
def test_support_edges_cover_every_role_and_noise_relation(kind, decoys):
    """Generation numbers entities and relations as a store reads the support
    rows, so every role must lie on a support edge and every relation noise
    draws must label one, with or without decoys."""
    rule = _RULES[kind]
    roles, edges = rule.roles, rule.edges
    if decoys:
        roles, edges = roles + rule.decoy[0], edges + rule.decoy[1]
    assert {suffix for suffix, _ in roles} == {e for u, _, w in edges for e in (u, w)}
    assert set(SUPPORT_RELATIONS[kind]) == {r for _, r, _ in edges}


CHECKS = list(dict.fromkeys(c for rule in _RULES.values() for c in (rule.el, rule.ql)))


@pytest.mark.parametrize("check", CHECKS, ids=lambda c: c.tails.__name__)
def test_fast_evaluator_equals_model_checker(check):
    """Evaluator tails from h == model_check's root set united over the other
    constants' bindings, on random stores over R1..R5, every entity as h."""
    arena = FormulaArena()
    fid = parse(check.text, arena)
    head = next(c for c, role in check.binding if role == "head")
    others = [c for c, role in check.binding if role != "head"]
    rng = random.Random(5)
    cases = nonempty = 0
    for _ in range(300):
        n = rng.randint(2, 7)
        names = [f"e{i}" for i in range(n)]
        triples = sorted({
            (rng.choice(names), rng.choice(RELATIONS), rng.choice(names))
            for _ in range(rng.randint(n, 8 * n))
        })
        store = TripleStore(triples, entity_order=names, relation_order=RELATIONS)
        adj = _Adjacency(n, RELATIONS)
        for u, r, w in triples:
            adj.add(store.entity_id(u), r, store.entity_id(w))
        for h in range(n):
            want: set[int] = set()
            for values in product(range(n), repeat=len(others)):
                binding = {head: h, **dict(zip(others, values))}
                want |= model_check(store, arena, fid, binding).row_set(fid)
            got = check.tails(adj, h)
            assert got == want, (check.text, triples, names[h])
            cases += 1
            nonempty += bool(want)
    assert cases > 1000 and nonempty > 50
