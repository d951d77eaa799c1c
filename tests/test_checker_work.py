"""The model checker's work, pinned: its call count and summed `OpCounter.ops`
over generation's verification and over era ranking.  Both are machine-free,
so a faster checker must leave them as they are."""

import pytest

from kglogic import (
    EvaluationError, FormulaArena, OpCounter, SynthConfig, enumerate_subformulas,
    evalrank, gen_dataset, parse, synthgen,
)
from kglogic.evalrank import run_dataset

# (config, model_check calls, summed ops) over gen_dataset's verification
GEN_WORK = (
    (SynthConfig("U", 500, seed=1, decoys=True), 1000, 28689),
    (SynthConfig("I", 300, seed=3), 300, 7904),
    (SynthConfig("C", 300, seed=4), 300, 2620),
)
ERA_PAIR = ("<R1>=1 top", "(<R4>=1 top & !<R5>=1 top)", "or")


def _counted(monkeypatch, module):
    """Route `module.model_check` through an OpCounter; returns [calls, ops]."""
    model_check = module.model_check
    work = [0, 0]

    def counted(*args, **kwargs):
        counter = OpCounter()
        table = model_check(*args, op_counter=counter, **kwargs)
        work[0] += 1
        work[1] += counter.ops
        return table

    monkeypatch.setattr(module, "model_check", counted)
    return work


@pytest.mark.parametrize(
    "cfg, calls, ops", GEN_WORK,
    ids=[f"{c.relation_kind}-{c.n_instances}-s{c.seed}" for c, _, _ in GEN_WORK],
)
def test_gen_verification_work(cfg, calls, ops, monkeypatch):
    work = _counted(monkeypatch, synthgen)
    gen_dataset(cfg)
    assert work == [calls, ops]


def test_era_ranking_work(monkeypatch):
    dataset = gen_dataset(SynthConfig("U", 60, seed=3, decoys=True))
    work = _counted(monkeypatch, evalrank)
    report = run_dataset(dataset, "era", 1, ERA_PAIR)
    assert report.queries
    assert work == [2, 5069]


def test_a_roots_kept_order_survives_arena_growth():
    """model_check reuses a root's subformula order; the arena only grows, so
    the kept order equals a fresh walk, and a bool is still no root."""
    arena = FormulaArena()
    root = parse("(<R1>=1 @h & !top)", arena)
    kept = arena.subformulas(root)
    parse("<R2>=2 (<R1>=1 @h & P(x))", arena)
    assert arena.subformulas(root) is kept
    assert kept == tuple((f, arena.node(f)) for f in enumerate_subformulas(arena, root))
    with pytest.raises(EvaluationError, match="invalid formula id"):
        arena.subformulas(True)
