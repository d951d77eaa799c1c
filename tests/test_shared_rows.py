"""model_check's shared constant-free rows, and linear dataset verification."""

import random

from kglogic import (
    FormulaArena, SynthConfig, canonical_formula, constants_in,
    enumerate_subformulas, gen_dataset, model_check,
)
from kglogic import synthgen
from kglogic.checker import OpCounter

from helpers import random_instance


def test_shared_rows_equal_plain_rows():
    """Across calls with different bindings, every row equals the plain
    checker's, and the shared rows are exactly the constant-free ones."""
    rng = random.Random(31)
    reused = 0
    for _ in range(300):
        store, arena, fid, binding = random_instance(rng, max_entities=12)
        shared: dict[int, set[int]] = {}
        for _ in range(3):
            binding = {c: rng.randrange(store.n_entities) for c in binding}
            plain = model_check(store, arena, fid, binding)
            reused += bool(shared)
            counter = OpCounter()
            table = model_check(store, arena, fid, binding, counter, shared)
            for sub in enumerate_subformulas(arena, fid):
                assert table.row_set(sub) == plain.row_set(sub)
        assert set(shared) == {
            sub for sub in enumerate_subformulas(arena, fid)
            if not constants_in(arena, sub)
        }
    assert reused > 300


def test_verification_is_linear_on_relation_i(monkeypatch):
    """I's top and <R4>=2 top are evaluated once per dataset, so the checker's
    ops per instance do not grow with the instance count."""
    ops = {}
    real = synthgen.model_check

    def counted(store, arena, root, binding=None, op_counter=None, shared=None):
        counter = OpCounter()
        table = real(store, arena, root, binding, counter, shared)
        ops[arena] = ops.get(arena, 0) + counter.ops
        return table

    monkeypatch.setattr(synthgen, "model_check", counted)
    per_instance = []
    for n in (150, 600):
        ops.clear()
        gen_dataset(SynthConfig("I", n, seed=3))
        (total,) = ops.values()
        per_instance.append(total / n)
    # a top row per instance would make this about 4 (as many entities)
    assert per_instance[1] < 1.5 * per_instance[0]


def test_shared_rows_count_no_ops():
    dataset = gen_dataset(SynthConfig("I", 40, seed=2))
    arena = FormulaArena()
    fid = canonical_formula(arena, "I")
    store = dataset.store
    shared: dict[int, set[int]] = {}
    first, second = OpCounter(), OpCounter()
    model_check(store, arena, fid, {"h": 0}, first, shared)
    model_check(store, arena, fid, {"h": 0}, second, shared)
    # the second call skips top's n ops and <R4>=2 top's n + |R4| ops
    assert first.ops - second.ops == 2 * store.n_entities + sum(
        1 for _h, r, _t in store.triples if r == store.relation_id("R4")
    )
