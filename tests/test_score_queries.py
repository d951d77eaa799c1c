"""score_queries (one lane-batched pass per split) against score_query."""

import pytest

from kglogic import (
    EvaluationError,
    FormulaArena,
    constants_in,
    diamond_depth,
    el_label,
    gen_dataset,
    ground_constants,
    parse,
    score_queries,
    score_query,
)
from kglogic.synthgen import rule_text
from test_golden_datasets import GOLDEN_CONFIGS


@pytest.mark.parametrize("cfg", GOLDEN_CONFIGS, ids=lambda c: f"{c.relation_kind}{c.seed}")
@pytest.mark.parametrize("mode", ["query", "el"])
def test_batched_sets_equal_dense_scores(cfg, mode):
    dataset = gen_dataset(cfg)
    store = dataset.store
    arena = FormulaArena()
    fid = parse(rule_text(cfg.relation_kind, "ql" if mode == "query" else "el"), arena)
    # test-split heads, then every target's tail: tails have no out-edges in
    # the rule structures, so el grounds no abstract constant there
    queries = [(store.entity_id(h), r) for h, r, _ in dataset.targets_for("test")]
    queries += [(store.entity_id(t), r) for _, r, t, _ in dataset.targets]
    got = score_queries(store, arena, fid, mode, 1, queries)
    assert len(got) == len(queries)
    for query, positives in zip(queries, got):
        dense = score_query(store, arena, fid, mode, 1, query)
        assert positives == {v for v, bit in enumerate(dense) if bit}, query
    assert any(got)
    if mode == "el" and constants_in(arena, fid) - {"h"}:
        n_groundings = [
            len(ground_constants(
                constants_in(arena, fid), el_label(store, 1, h), store,
                within_depth_of=(h, diamond_depth(arena, fid)),
            ))
            for h, _ in queries
        ]
        assert 0 in n_groundings and max(n_groundings) > 1


def test_no_queries():
    dataset = gen_dataset(GOLDEN_CONFIGS[0])
    arena = FormulaArena()
    fid = parse(rule_text("C", "el"), arena)
    assert score_queries(dataset.store, arena, fid, "el", 1, []) == []


def test_era_mode_is_not_batched():
    dataset = gen_dataset(GOLDEN_CONFIGS[0])
    arena = FormulaArena()
    fid = parse("top", arena)
    with pytest.raises(EvaluationError, match="query or el"):
        score_queries(dataset.store, arena, fid, "none", 1, [(0, "C")])
