"""Noise rejection's back-walks, derived from the check formulas."""

import random

import pytest

from kglogic import (
    FormulaArena, TripleStore, constants_in, model_check, parse,
)
from kglogic.synthgen import (
    _RULES, _Adjacency, _affected_heads, _back_walks, _chain_tails, _Instance,
)

from helpers import random_formula

RELATIONS = ("R1", "R2", "R3", "R4", "R5")

# (<R4>=2 top & <R3>=1 <R2>=1 <R1>=1 @h): a count over an unanchored operand
# at the tail, depth hops out
COUNTED_CHAIN_TEXT = "(<R4>=2 top & <R3>=1 <R2>=1 <R1>=1 @h)"


def _counted_chain_tails(adj, h):
    return {t for t in _chain_tails(adj, h) if len(adj.pred["R4"][t]) >= 2}


def _walks(*texts):
    arena = FormulaArena()
    return _back_walks(arena, [parse(text, arena) for text in texts], "h")


def test_catalogue_tables():
    """Each kind's table, from the formulas of its el and ql checks."""
    tables = {
        kind: _walks(*dict.fromkeys((rule.el.text, rule.ql.text)))
        for kind, rule in _RULES.items()
    }
    assert tables == {
        "C": {
            "R1": (("u", ()),),
            "R2": (("u", ("R1",)),),
            "R3": (("u", ("R2", "R1")),),
        },
        "I": {
            "R1": (("u", ()),),
            "R2": (("u", ("R1",)),),
            "R3": (("u", ("R2", "R1")),),
            "R4": (("w", ("R2", "R1")),),
        },
        "U": {
            "R1": (("u", ()),),
            "R2": (("u", ("R1",)),),
            "R3": (("u", ("R1",)),),
            "R4": (("u", ("R2", "R1")),),
            "R5": (("u", ("R3", "R1")),),
        },
    }
    assert _walks(COUNTED_CHAIN_TEXT) == {
        "R1": (("u", ()),),
        "R2": (("u", ("R1",)),),
        "R3": (("u", ("R2", "R1")),),
        "R4": (("w", ("R3", "R2", "R1")),),
    }


@pytest.mark.parametrize(
    "text",
    [
        "<R2>=1 !<R1>=1 @h",
        "(<R1>=1 @h | <R2>=1 @h)",
        "<R3>=1 <R4>=2 top",  # an unanchored count under a diamond
        "<R4>=2 <R1>=1 top",  # the same, nested in the count's operand
        "<R4>=2 top",  # a count that no anchored conjunct places
        "(<R4>=2 top & @c)",
        "<R1>=1 (<R4>=2 top & !@h)",
    ],
)
def test_unplaceable_shapes_fall_back(text):
    assert _walks(text) is None
    # one such formula among the checks leaves the whole kind without a table
    assert _walks("<R3>=1 <R2>=1 <R1>=1 @h", text) is None


def test_edge_free_conjuncts_are_placed():
    assert _walks("<R2>=1 (<R1>=1 @h & (@c & top))") == {
        "R1": (("u", ()),),
        "R2": (("u", ("R1",)),),
    }


CASES = [(c.text, c.tails) for rule in _RULES.values() for c in (rule.el, rule.ql)]
CASES = list(dict.fromkeys(CASES)) + [(COUNTED_CHAIN_TEXT, _counted_chain_tails)]


@pytest.mark.parametrize("text, tails", CASES, ids=[t.__name__ for _, t in CASES])
def test_every_changed_head_is_walked_to(text, tails):
    """On random graphs over R1..R5, every entity a head, a new edge changes
    `tails` only at heads the derived walk returns."""
    arena = FormulaArena()
    fid = parse(text, arena)
    walks = _back_walks(arena, [fid], "h")
    rng = random.Random(17)
    cases = changed = 0
    for _ in range(400):
        n = rng.randint(3, 9)
        ids = list(range(n))
        heads = [_Instance(v, {"head": v}, [], ()) for v in ids]
        adj = _Adjacency(n, RELATIONS)
        for _ in range(rng.randint(n, 6 * n)):
            adj.add(rng.choice(ids), rng.choice(RELATIONS), rng.choice(ids))
        before = {v: tails(adj, v) for v in ids}
        for _ in range(10):
            u, rel, w = rng.choice(ids), rng.choice(RELATIONS), rng.choice(ids)
            if w in adj.succ[rel][u]:
                continue
            adj.add(u, rel, w)
            affected = _affected_heads(adj, (u, w), heads, walks.get(rel, ()))
            affected_ids = {inst.roles["head"] for inst in affected}
            for v in ids:
                cases += 1
                if tails(adj, v) != before[v]:
                    changed += 1
                    assert v in affected_ids, (text, (u, rel, w), v)
            adj.remove(u, rel, w)
    assert cases > 20000 and changed > 100


def test_count_at_the_tail_is_walked_to_past_depth():
    """h -R1-> a -R2-> b -R3-> t with one R4 in-edge at t: a second one gives h
    the tail t, three hops out."""
    arena = FormulaArena()
    fid = parse(COUNTED_CHAIN_TEXT, arena)
    h, a, b, t, x, y = range(6)
    adj = _Adjacency(6, RELATIONS)
    for triple in ((h, "R1", a), (a, "R2", b), (b, "R3", t), (x, "R4", t)):
        adj.add(*triple)
    heads = [_Instance(v, {"head": v}, [], ()) for v in range(6)]
    assert _counted_chain_tails(adj, h) == set()
    adj.add(y, "R4", t)
    assert _counted_chain_tails(adj, h) == {t}
    walks = _back_walks(arena, [fid], "h")
    walked = _affected_heads(adj, (y, t), heads, walks["R4"])
    assert [inst.roles["head"] for inst in walked] == [h]


def _store(adj, names):
    triples = [
        (names[u], r, names[w]) for r, by_head in adj.succ.items()
        for u, ws in enumerate(by_head) for w in ws
    ]
    return TripleStore(triples, entity_order=names, relation_order=RELATIONS[:3])


def test_random_placeable_formulas_against_model_checker():
    """For random formulas over @h, @c and top whose walks derive, a new edge
    changes the model-checked tails (united over @c) only at walked heads."""
    rng = random.Random(23)
    formulas = placed = at_target = changed = 0
    while placed < 200:
        arena = FormulaArena()
        fid = random_formula(
            rng, arena, RELATIONS[:3], constants=("h", "c"), max_depth=3, size=8
        )
        formulas += 1
        walks = _back_walks(arena, [fid], "h")
        if walks is None or "h" not in constants_in(arena, fid):
            continue
        placed += 1
        at_target += any(end == "w" for ws in walks.values() for end, _ in ws)
        for _ in range(6):
            n = rng.randint(2, 5)
            names = [f"e{i}" for i in range(n)]
            ids = list(range(n))
            heads = [_Instance(v, {"head": v}, [], ()) for v in ids]
            adj = _Adjacency(n, RELATIONS[:3])
            for _ in range(rng.randint(n, 4 * n)):
                adj.add(rng.choice(ids), rng.choice(RELATIONS[:3]), rng.choice(ids))

            def all_tails():
                store = _store(adj, names)
                return [
                    set().union(*(
                        model_check(store, arena, fid, {"h": h, "c": c}).row_set(fid)
                        for c in range(n)
                    ))
                    for h in range(n)
                ]

            before = all_tails()
            for _ in range(4):
                u, rel, w = (
                    rng.choice(ids), rng.choice(RELATIONS[:3]), rng.choice(ids)
                )
                if w in adj.succ[rel][u]:
                    continue
                adj.add(u, rel, w)
                walked = _affected_heads(adj, (u, w), heads, walks.get(rel, ()))
                affected = {inst.index for inst in walked}
                for h, got in enumerate(all_tails()):
                    if got != before[h]:
                        changed += 1
                        assert h in affected, (arena, fid, (u, rel, w), h)
                adj.remove(u, rel, w)
    assert at_target > 10 and changed > 100, (formulas, at_target, changed)
