"""Era (`none`) mode model-checks its sentence pair once per split."""

from kglogic import (
    FormulaArena, SynthConfig, evalrank, gen_dataset, parse, rank_metrics,
    run_dataset, score_query,
)


def test_era_checks_each_sentence_once_per_split(monkeypatch):
    dataset = gen_dataset(SynthConfig("U", 150, seed=3, decoys=True))
    store = dataset.store
    texts = ("<R1>=1 top", "<R4>=1 top", "and")
    arena = FormulaArena()
    pair = (parse(texts[0], arena), parse(texts[1], arena), texts[2])
    g1_row = evalrank.model_check(store, arena, pair[0]).row_set(pair[0])

    calls = []
    real_check = evalrank.model_check

    def counting_check(*args, **kwargs):
        calls.append(args[2])
        return real_check(*args, **kwargs)

    monkeypatch.setattr(evalrank, "model_check", counting_check)
    report = run_dataset(dataset, "era", 1, texts)
    assert len(calls) == 2

    # heads on both sides of g1, each ranked as the one-query wrapper scores it
    heads = [store.entity_id(q["h"]) for q in report.queries]
    assert any(h in g1_row for h in heads) and any(h not in g1_row for h in heads)
    for q, h in zip(report.queries, heads):
        scores = score_query(store, arena, None, "none", 1, (h, q["rel"]), pair)
        known = {store.entity_id(t) for hh, _, t, _ in dataset.targets if hh == q["h"]}
        expected = rank_metrics(scores, store.entity_id(q["t"]), known)
        assert (q["rank"], q["rr"]) == (expected["rank"], expected["rr"])
