"""`<R>=N` diamonds in lane passes against the model checker, lane by lane.

Every count from 1 to 9 is tried, the powers of two among them too, over
stores where one entity has 3N in-neighbours and the others up to 3N, so a
lane's counter can wrap around past N more than once.  The lane counts cross
the 64-bit word boundary, and one `score_queries` call is split across
several passes.
"""

import random

import pytest

from kglogic import (
    FormulaArena,
    TripleStore,
    compile_formula,
    evalrank,
    forward_lanes,
    model_check,
    parse,
    score_queries,
)

# operands that hold at every, few or most in-neighbours, some per lane
OPERANDS = ("top", "@h", "!@h", "(P(P1) | @h)", "!<R2>=1 @h", "<R2>=1 !@h")


def _dense_store(rng: random.Random, count: int) -> TripleStore:
    """R1 in-degrees up to 3 * count (exactly that at e0), a sparse R2, and P1."""
    names = [f"e{i}" for i in range(3 * count + rng.randint(1, 4))]
    triples = []
    for t in names:
        k = 3 * count if t == "e0" else rng.randint(0, 3 * count)
        triples += [(h, "R1", t) for h in rng.sample(names, k)]
        triples += [(h, "R2", t) for h in rng.sample(names, rng.randint(0, 2))]
    preds = [("P1", e) for e in names if rng.random() < 0.5]
    return TripleStore(triples, preds, names, ["R1", "R2"])


@pytest.mark.parametrize("count", range(1, 10))
def test_lanes_equal_model_checker(count):
    rng = random.Random(count)
    for lanes in (1, 64, 65, 130):
        store = _dense_store(rng, count)
        heads = [rng.randrange(store.n_entities) for _ in range(lanes)]
        masks = {"h": {}}
        for i, h in enumerate(heads):
            masks["h"][h] = masks["h"].get(h, 0) | 1 << i
        for operand in OPERANDS:
            arena = FormulaArena()
            fid = parse(f"<R1>={count} {operand}", arena)
            net = compile_formula(arena, fid)
            root = forward_lanes(store, net, masks, lanes, debug=True)[net.out_index]
            for i, h in enumerate(heads):
                got = {v for v, m in root.items() if m >> i & 1}
                assert got == model_check(store, arena, fid, {"h": h}).row_set(fid), (
                    operand, lanes, i
                )


def test_score_queries_split_across_passes(monkeypatch):
    monkeypatch.setattr(evalrank, "PASS_LANES", 7)
    rng = random.Random(5)
    store = _dense_store(rng, 5)
    queries = [(v, "R1") for v in range(store.n_entities)]
    assert len(queries) > 2 * evalrank.PASS_LANES
    for text in ("<R1>=5 !<R2>=1 @h", "<R1>=8 !@h", "<R1>=3 <R1>=4 !@h"):
        arena = FormulaArena()
        fid = parse(text, arena)
        got = score_queries(store, arena, fid, "query", 1, queries)
        assert len(got) == len(queries)
        for (h, _), positives in zip(queries, got):
            assert positives == model_check(store, arena, fid, {"h": h}).row_set(fid)
