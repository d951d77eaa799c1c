"""score_query's labeled modes against the model checker, grounding by grounding."""

import random

import pytest

from helpers import random_formula, random_store
from kglogic import (
    EvaluationError,
    FormulaArena,
    TripleStore,
    constants_in,
    diamond_depth,
    el_label,
    ground_constants,
    model_check,
    parse,
    score_query,
)


def _random_cases(rng, constants):
    """300 random stores, one random formula each, every entity as h.

    The formula is redrawn until it uses a constant other than h, if the
    constants allow one, so that el has more than one grounding to merge.
    """
    for _ in range(300):
        store = random_store(rng, max_entities=15, edge_factor=3.0)
        arena = FormulaArena()
        while True:
            fid = random_formula(
                rng, arena, store.relation_names, preds=sorted(store.preds),
                constants=constants,
            )
            if constants == ("h",) or constants_in(arena, fid) - {"h"}:
                break
        d = rng.randint(0, 1)
        for h in range(store.n_entities):
            yield store, arena, fid, h, d


def test_query_mode_equals_model_checker():
    cases = nonempty = 0
    for store, arena, fid, h, _ in _random_cases(random.Random(41), ("h",)):
        want = model_check(store, arena, fid, {"h": h}).row_bits(fid)
        got = score_query(store, arena, fid, "query", 1, (h, "R1"))
        assert got == want, (store.triples, h)
        cases += 1
        nonempty += any(want)
    assert cases > 2000 and nonempty > 1000


def test_el_mode_equals_union_over_groundings():
    """el scores == OR of model_check's root row over every el grounding."""
    cases = nonempty = needs_union = 0
    for store, arena, fid, h, d in _random_cases(random.Random(41), ("h", "c1", "c2")):
        groundings = ground_constants(
            constants_in(arena, fid), el_label(store, d, h), store,
            within_depth_of=(h, diamond_depth(arena, fid)),
        )
        rows = [model_check(store, arena, fid, b).row_bits(fid) for b in groundings]
        want = [0] * store.n_entities
        for row in rows:
            want = [a | b for a, b in zip(want, row)]
        got = score_query(store, arena, fid, "el", d, (h, "R1"))
        assert got == want, (store.triples, h, d)
        cases += 1
        nonempty += any(want)
        # no single grounding gives the union: a loop must merge them all
        needs_union += bool(rows) and want not in rows
    assert cases > 2000 and nonempty > 500 and needs_union > 30


def test_none_mode_needs_an_era_pair():
    store = TripleStore([("a", "R1", "b")])
    arena = FormulaArena()
    top = parse("top", arena)
    assert score_query(
        store, arena, None, "none", 1, (0, "R1"), era_pair=(top, top, "and")
    ) == [1, 1]
    with pytest.raises(EvaluationError, match="era pair"):
        score_query(store, arena, None, "none", 1, (0, "R1"))
