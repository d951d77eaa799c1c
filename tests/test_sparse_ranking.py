"""Filtered metrics from positive sets, and scoring in bounded lane passes."""

import random

import pytest

from kglogic import (
    FormulaArena,
    Labeling,
    constants_in,
    diamond_depth,
    el_label,
    evalrank,
    evaluate_queries,
    gen_dataset,
    ground_queries,
    load_store,
    parse,
    rank_metrics,
    run_dataset,
    score_queries,
    score_query,
)
from kglogic.synthgen import rule_text
from test_golden_datasets import GOLDEN_CONFIGS


def test_sparse_metrics_equal_dense_rank_metrics():
    rng = random.Random(8)
    for case in range(500):
        n = rng.randint(1, 60)
        positives = {v for v in range(n) if rng.random() < rng.random()}
        known = {v for v in range(n) if rng.random() < rng.random()}
        target = rng.randrange(n)
        if case % 2:
            positives.add(target)
        else:
            positives.discard(target)
        k_list = tuple(rng.randint(1, n + 5) for _ in range(rng.randint(0, 4)))
        sparse = evalrank._sparse_metrics(positives, target, known, n, k_list)
        dense = rank_metrics(evalrank._dense(positives, n), target, known, k_list)
        assert sparse == dense
        assert repr(sparse) == repr(dense)


@pytest.mark.parametrize("mode", ["era", "ql", "el"])
def test_run_dataset_builds_no_dense_scores(monkeypatch, mode):
    def refuse(*args, **kwargs):
        raise AssertionError("dense ranking path reached")

    datasets = [gen_dataset(cfg) for cfg in GOLDEN_CONFIGS]
    expected = [run_dataset(dataset, mode, 1).to_text() for dataset in datasets]
    monkeypatch.setattr(evalrank, "_dense", refuse)
    monkeypatch.setattr(evalrank, "rank_metrics", refuse)
    assert [run_dataset(dataset, mode, 1).to_text() for dataset in datasets] == expected


def test_test_triple_missing_from_all_targets():
    store = load_store("a\tR\tb\nb\tR\tc")
    arena = FormulaArena()
    fid = parse("<R>=1 @h", arena)
    test_targets = [("a", "R", "b")]
    without = evaluate_queries(store, arena, fid, "ql", 1, test_targets, [])
    known = evaluate_queries(store, arena, fid, "ql", 1, test_targets, test_targets)
    assert without.queries == known.queries
    scores = score_query(store, arena, fid, "query", 1, (store.entity_id("a"), "R"))
    expected = rank_metrics(scores, store.entity_id("b"), set())
    expected.update({"h": "a", "rel": "R", "t": "b"})
    assert without.queries == [expected]
    assert expected["n_candidates"] == store.n_entities


def _greedy_passes(lane_counts, cap):
    """Consecutive queries grouped while their lanes fit in cap; queries
    without lanes ride along with the next pass."""
    passes = [[]]
    for count in lane_counts:
        if sum(passes[-1]) and sum(passes[-1]) + count > cap:
            passes.append([])
        passes[-1].append(count)
    return passes


@pytest.mark.parametrize("cfg", GOLDEN_CONFIGS, ids=lambda c: f"{c.relation_kind}{c.seed}")
@pytest.mark.parametrize("mode", ["query", "el"])
def test_small_lane_cap_keeps_sets_and_bounds_passes(monkeypatch, cfg, mode):
    dataset = gen_dataset(cfg)
    store = dataset.store
    arena = FormulaArena()
    fid = parse(rule_text(cfg.relation_kind, "ql" if mode == "query" else "el"), arena)
    queries = [(store.entity_id(h), r) for h, r, _ in dataset.targets_for("test")]
    queries += [(store.entity_id(t), r) for _, r, t, _ in dataset.targets]
    heads = [h for h, _rel in queries]
    lab = Labeling() if mode == "query" else el_label(store, 1, heads[0])
    lane_counts = [
        len(bindings)
        for bindings in ground_queries(
            constants_in(arena, fid), lab, store, heads, diamond_depth(arena, fid)
        )
    ]

    passes, el_labels = [], []
    real_forward, real_label = evalrank.forward_lanes, evalrank.el_label

    def recording_forward(store, net, masks, lanes, *args):
        passes.append(lanes)
        return real_forward(store, net, masks, lanes, *args)

    def counting_label(*args):
        el_labels.append(args)
        return real_label(*args)

    monkeypatch.setattr(evalrank, "forward_lanes", recording_forward)
    monkeypatch.setattr(evalrank, "el_label", counting_label)
    unbounded = score_queries(store, arena, fid, mode, 1, queries)
    assert passes == [sum(lane_counts)]

    cap = 40
    monkeypatch.setattr(evalrank, "PASS_LANES", cap)
    passes.clear()
    assert score_queries(store, arena, fid, mode, 1, queries) == unbounded
    assert len(el_labels) == (2 if mode == "el" else 0)
    expected = _greedy_passes(lane_counts, cap)
    assert passes == [sum(group) for group in expected]
    assert 0 not in passes
    for group in expected:
        assert sum(group) <= cap or sum(1 for count in group if count) == 1
    assert len(passes) > 1
    assert any(len(group) > 1 for group in expected)


def test_query_without_lanes_rides_with_the_next_pass(monkeypatch):
    cfg = next(c for c in GOLDEN_CONFIGS if c.relation_kind == "U")
    store = gen_dataset(cfg).store
    arena = FormulaArena()
    fid = parse(rule_text("U", "el"), arena)
    heads = list(range(store.n_entities))
    lab = el_label(store, 1, heads[0])
    counts = [
        len(bindings)
        for bindings in ground_queries(
            constants_in(arena, fid), lab, store, heads, diamond_depth(arena, fid)
        )
    ]
    empty, wide = counts.index(0), counts.index(max(counts))
    queries = [(empty, "U"), (wide, "U")]
    unbounded = score_queries(store, arena, fid, "el", 1, queries)

    passes = []
    real_forward = evalrank.forward_lanes

    def recording_forward(store, net, masks, lanes, *args):
        passes.append(lanes)
        return real_forward(store, net, masks, lanes, *args)

    monkeypatch.setattr(evalrank, "forward_lanes", recording_forward)
    monkeypatch.setattr(evalrank, "PASS_LANES", max(counts) - 1)
    assert score_queries(store, arena, fid, "el", 1, queries) == unbounded
    assert unbounded[0] == set()
    assert passes == [max(counts)]
