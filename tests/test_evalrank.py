import random

import pytest

from kglogic import (
    EvaluationError,
    FormulaArena,
    SynthConfig,
    canonical_formula,
    check_sentence_pair,
    evaluate_queries,
    gen_dataset,
    parse,
    rank_metrics,
    score_queries,
    score_query,
    table2_run,
    write_dataset,
)
from helpers import brute_rank_stats, random_formula

TWO_CHAINS = (
    "h1\tR1\ta1\na1\tR2\tb1\nb1\tR3\tt1\n"
    "h2\tR1\ta2\na2\tR2\tb2\nb2\tR3\tt2"
)


def test_rank_metrics_unique_top():
    stats = rank_metrics([0, 1, 0, 0], target=1, known_true={1})
    assert stats["rank"] == 1.0
    assert stats["hits"][1] == 1.0
    assert stats["rr"] == 1.0


def test_rank_metrics_two_way_tie():
    stats = rank_metrics([1, 1, 0, 0], target=0, known_true={0})
    assert stats["rank"] == 1.5
    assert stats["hits"][1] == 0.5
    assert stats["rr"] == (1.0 + 0.5) / 2


def test_rank_metrics_all_zero():
    n = 5
    stats = rank_metrics([0] * n, target=2, known_true={2})
    assert stats["hits"][1] == 1 / n
    assert stats["rank"] == (n + 1) / 2


def test_rank_metrics_filters_known_true():
    # another known-true tail with score 1 must not hurt the target
    stats = rank_metrics([1, 1, 0], target=0, known_true={0, 1})
    assert stats["hits"][1] == 1.0
    assert stats["n_candidates"] == 2


def test_rank_metrics_target_out_of_range():
    with pytest.raises(EvaluationError):
        rank_metrics([1, 0], target=5, known_true=set())


def test_rank_metrics_against_enumeration_oracle():
    rng = random.Random(55)
    for _ in range(200):
        n = rng.randint(1, 50)
        scores = [rng.randint(0, 3) for _ in range(n)]
        target = rng.randrange(n)
        known = {target}
        for v in range(n):
            if v != target and rng.random() < 0.2:
                known.add(v)
        stats = rank_metrics(scores, target, known, k_list=(1, 3, 10))
        rank, hits, rr = brute_rank_stats(scores, target, known)
        assert stats["rank"] == pytest.approx(rank)
        for k in (1, 3, 10):
            assert stats["hits"][k] == pytest.approx(hits(k))
        assert stats["rr"] == pytest.approx(rr)


def test_score_query_ql_on_clean_chain():
    dataset = gen_dataset(SynthConfig("C", n_instances=1, noise_triples=0, seed=0))
    store = dataset.store
    arena = FormulaArena()
    fid = canonical_formula(arena, "C")
    h, rel, t, _ = dataset.targets[0]
    scores = score_query(store, arena, fid, "query", 1, (store.entity_id(h), rel))
    assert scores[store.entity_id(t)] == 1
    assert sum(scores) == 1


def test_score_query_none_matches_sentence_pair():
    from kglogic import load_store

    store = load_store(TWO_CHAINS)
    arena = FormulaArena()
    g1 = parse("<R1>=1 top", arena)
    g2 = parse("<R3>=1 <R2>=1 <R1>=1 top", arena)
    h = store.entity_id("h1")
    for comb in ("and", "or", "not-left"):
        scores = score_query(
            store, arena, None, "none", 1, (h, "C"), era_pair=(g1, g2, comb)
        )
        for t in range(store.n_entities):
            assert scores[t] == check_sentence_pair(store, arena, g1, g2, comb, h, t)


def test_era_scores_tie_isomorphic_chain_tails():
    from kglogic import load_store

    store = load_store(TWO_CHAINS)
    arena = FormulaArena()
    rng = random.Random(61)
    t1, t2 = store.entity_id("t1"), store.entity_id("t2")
    h = store.entity_id("h1")
    pairs = []
    for text1, text2, comb in (
        ("top", "top", "and"),
        ("top", "<R3>=1 <R2>=1 <R1>=1 top", "and"),
        ("<R1>=1 top", "<R2>=1 <R1>=1 top", "or"),
        ("!<R1>=1 top", "top", "and"),
        ("<R1>=1 top", "!<R3>=1 top", "not-left"),
    ):
        pairs.append((parse(text1, arena), parse(text2, arena), comb))
    while len(pairs) < 12:
        g1 = random_formula(rng, arena, ("R1", "R2", "R3"), max_depth=3, size=8)
        g2 = random_formula(rng, arena, ("R1", "R2", "R3"), max_depth=3, size=8)
        pairs.append((g1, g2, ("and", "or", "not-left")[rng.randrange(3)]))
    for g1, g2, comb in pairs:
        scores = score_query(
            store, arena, None, "none", 1, (h, "C"), era_pair=(g1, g2, comb)
        )
        assert scores[t1] == scores[t2]
    # the query-labeled chain rule separates what no pair can
    fid = canonical_formula(arena, "C")
    ql = score_query(store, arena, fid, "query", 1, (h, "C"))
    assert ql[t1] == 1 and ql[t2] == 0


def test_score_query_el_ignores_decoy():
    dataset = gen_dataset(
        SynthConfig("U", n_instances=1, noise_triples=0, seed=1, decoys=True)
    )
    store = dataset.store
    roles = {role: e for _, e, role in dataset.ground}
    arena = FormulaArena()
    fid = canonical_formula(arena, "Uprime")
    h, rel, t, _ = dataset.targets[0]
    scores = score_query(store, arena, fid, "el", 1, (store.entity_id(h), rel))
    assert scores[store.entity_id(t)] == 1
    assert scores[store.entity_id(roles["decoy_tail"])] == 0
    assert sum(scores) == 1


def test_constant_formula_rejected_without_labeling():
    from kglogic import load_store

    store = load_store(TWO_CHAINS)
    arena = FormulaArena()
    fid = canonical_formula(arena, "C")
    with pytest.raises(EvaluationError, match="labeling"):
        score_query(store, arena, fid, "none", 1, (0, "C"))


def test_abstract_constant_rejected_under_query_labeling():
    from kglogic import load_store

    store = load_store(TWO_CHAINS)
    arena = FormulaArena()
    fid = canonical_formula(arena, "Uprime")
    with pytest.raises(EvaluationError, match="@c"):
        score_query(store, arena, fid, "query", 1, (0, "U"))


def _mini_dataset(tmp_path, kind, seed, decoys=False):
    cfg = SynthConfig(kind, n_instances=10, noise_triples=30, seed=seed, decoys=decoys)
    dataset = gen_dataset(cfg)
    out = tmp_path / f"{kind.lower()}{seed}"
    write_dataset(dataset, out)
    return out


def test_table2_chain_and_hub_are_perfect(tmp_path):
    for kind in ("C", "I"):
        out = _mini_dataset(tmp_path, kind, seed=8)
        report = table2_run(out, "ql", 1)
        assert report.hit_at(1) == 1.0
        assert report.mrr() == 1.0


def test_table2_fork_join_modes(tmp_path):
    out = _mini_dataset(tmp_path, "U", seed=8, decoys=True)
    ql = table2_run(out, "ql", 1)
    el = table2_run(out, "el", 1)
    assert ql.hit_at(1) == 0.5
    assert el.hit_at(1) == 1.0
    for q in ql.queries:
        assert q["better"] == 0 and q["tied"] == 2


def test_ql_dominates_era(tmp_path):
    pairs = [
        ("top", "top", "and"),
        ("top", "<R3>=1 <R2>=1 <R1>=1 top", "and"),
        ("<R1>=1 top", "top", "or"),
        ("top", "top", "not-left"),
    ]
    for kind in ("C", "I"):
        out = _mini_dataset(tmp_path, kind, seed=15)
        ql = table2_run(out, "ql", 1).hit_at(1)
        for pair in pairs:
            era = table2_run(out, "era", 1, era_pair_texts=pair).hit_at(1)
            assert ql >= era


def test_el_dominates_ql_on_decoys(tmp_path):
    out = _mini_dataset(tmp_path, "U", seed=16, decoys=True)
    assert table2_run(out, "el", 1).hit_at(1) >= table2_run(out, "ql", 1).hit_at(1)


def test_dataset_kind_mismatch(tmp_path):
    out = _mini_dataset(tmp_path, "C", seed=20)
    config = (out / "config.txt").read_text().replace("relation=C", "relation=I")
    (out / "config.txt").write_text(config)
    with pytest.raises(EvaluationError, match="mismatch"):
        table2_run(out, "ql", 1)


def test_report_text_is_stable(tmp_path):
    out = _mini_dataset(tmp_path, "C", seed=30)
    r1 = table2_run(out, "ql", 1).to_text()
    r2 = table2_run(out, "ql", 1).to_text()
    assert r1 == r2
    assert "metric\thit@1\t1.0" in r1


def _message(call, *args):
    with pytest.raises(EvaluationError) as info:
        call(*args)
    return str(info.value)


def test_unknown_modes_and_a_missing_formula_rejected():
    from kglogic import load_store

    store = load_store(TWO_CHAINS)
    arena = FormulaArena()
    fid = canonical_formula(arena, "C")
    assert _message(score_query, store, arena, fid, "ql", 1, (0, "C")) == (
        "unknown labeling mode 'ql'"
    )
    assert _message(score_queries, store, arena, None, "query", 1, [(0, "C")]) == (
        "labeling mode 'query' needs a formula"
    )
    assert _message(evaluate_queries, store, arena, fid, "query", 1, [], []) == (
        "unknown mode 'query'"
    )
