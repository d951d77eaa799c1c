import dataclasses
import random

import pytest

from kglogic import (
    EvaluationError,
    FeatureMatrix,
    FormulaArena,
    canonical_formula,
    compile_formula,
    engine,
    forward,
    forward_rounds,
    init_features,
    is_negation_free,
    load_store,
    model_check,
    parse,
    readout,
)
from helpers import random_instance

U_STRUCTURE = "h\tR1\tc\nc\tR2\tz2\nz2\tR4\tt\nc\tR3\tz3\nz3\tR5\tt"


def test_init_predicate_column():
    store = load_store("x\tR1\ty\nz\tR1\ty", "a\tx\na\tz")
    arena = FormulaArena()
    net = compile_formula(arena, parse("P(a)", arena))
    x0 = init_features(store, net)
    assert x0.cols[0] == {store.entity_id("x"), store.entity_id("z")}


def test_init_constant_one_hot():
    store = load_store(U_STRUCTURE)
    arena = FormulaArena()
    net = compile_formula(arena, canonical_formula(arena, "C"))
    x0 = init_features(store, net, {"h": store.entity_id("h")})
    assert x0.cols[0] == {store.entity_id("h")}
    assert all(not x0.cols[c] for c in range(1, net.dim))


def test_init_top_everywhere():
    store = load_store("a\tR1\tb")
    arena = FormulaArena()
    net = compile_formula(arena, parse("top", arena))
    x0 = init_features(store, net)
    assert x0.cols[0] == {0, 1}


def test_init_unbound_constant():
    store = load_store("a\tR1\tb")
    arena = FormulaArena()
    net = compile_formula(arena, parse("@h", arena))
    with pytest.raises(EvaluationError, match="@h"):
        init_features(store, net)


def test_one_round_diamond():
    store = load_store("a\tR1\tb", "x\ta")
    arena = FormulaArena()
    net = compile_formula(arena, parse("<R1>=1 P(x)", arena))
    x0 = init_features(store, net)
    rounds = forward_rounds(store, net, x0)
    after_one = rounds[1]
    assert after_one.bit(store.entity_id("b"), net.out_index) == 1
    assert after_one.bit(store.entity_id("a"), net.out_index) == 0


def test_top_fixed_point():
    store = load_store("a\tR1\tb\nb\tR1\tc")
    arena = FormulaArena()
    net = compile_formula(arena, parse("top", arena))
    for snapshot in forward_rounds(store, net, init_features(store, net)):
        assert snapshot.cols[net.out_index] == set(range(store.n_entities))


def test_dimension_mismatch():
    store = load_store("a\tR1\tb")
    arena = FormulaArena()
    net1 = compile_formula(arena, parse("P(a)", arena))
    net2 = compile_formula(arena, parse("!P(a)", arena))
    x0 = init_features(store, net1)
    with pytest.raises(EvaluationError, match="width"):
        forward(store, net2, x0)


def test_readout_column():
    store = load_store(U_STRUCTURE)
    arena = FormulaArena()
    net = compile_formula(arena, canonical_formula(arena, "Uprime"))
    binding = {"h": store.entity_id("h"), "c": store.entity_id("c")}
    bits = readout(forward(store, net, init_features(store, net, binding)), net)
    assert {store.entity_name(v) for v, b in enumerate(bits) if b} == {"t"}


def test_oracle_equivalence_sample():
    rng = random.Random(97)
    for _ in range(60):
        store, arena, fid, binding = random_instance(rng, max_entities=20)
        net = compile_formula(arena, fid)
        x = init_features(store, net, binding, debug=True)
        bits = readout(forward(store, net, x, debug=True), net)
        want = model_check(store, arena, fid, binding).row_bits(fid)
        assert bits == want


def test_permutation_equivariance():
    rng = random.Random(101)
    for _ in range(20):
        store, arena, fid, binding = random_instance(rng, max_entities=12)
        if not store.triples:
            continue
        lines = [
            (store.entity_name(h), store.relation_name(r), store.entity_name(t))
            for h, r, t in sorted(store.triples)
        ]
        rng.shuffle(lines)
        entity_perm = store.entity_names
        rng.shuffle(entity_perm)
        preds = [
            (p, store.entity_name(v))
            for p in sorted(store.preds)
            for v in sorted(store.preds[p])
        ]
        permuted = type(store)(
            lines, preds, entity_order=entity_perm,
            relation_order=store.relation_names,
        )
        binding_by_name = {
            name: store.entity_name(v) for name, v in binding.items()
        }
        net = compile_formula(arena, fid)
        bits1 = readout(forward(store, net, init_features(store, net, binding)), net)
        binding2 = {
            name: permuted.entity_id(ename)
            for name, ename in binding_by_name.items()
        }
        bits2 = readout(
            forward(permuted, net, init_features(permuted, net, binding2)), net
        )
        names1 = {store.entity_name(v) for v, b in enumerate(bits1) if b}
        names2 = {permuted.entity_name(v) for v, b in enumerate(bits2) if b}
        assert names1 == names2


def test_monotone_layer_stability_negation_free():
    rng = random.Random(103)
    checked = 0
    while checked < 25:
        store, arena, fid, binding = random_instance(rng, max_entities=12)
        if not is_negation_free(arena, fid):
            continue
        checked += 1
        net = compile_formula(arena, fid)
        history = forward_rounds(store, net, init_features(store, net, binding))
        for col in range(net.dim):
            prev = set()
            for snapshot in history[1:]:
                assert prev <= snapshot.cols[col]
                prev = snapshot.cols[col]


def test_debug_env_var(monkeypatch):
    monkeypatch.setenv("CML_KG_DEBUG", "1")
    store = load_store(U_STRUCTURE)
    arena = FormulaArena()
    net = compile_formula(arena, canonical_formula(arena, "Uprime"))
    binding = {"h": store.entity_id("h"), "c": store.entity_id("c")}
    bits = readout(forward(store, net, init_features(store, net, binding)), net)
    assert sum(bits) == 1


def test_rows_view_matches_bits():
    store = load_store("a\tR1\tb", "x\ta")
    arena = FormulaArena()
    net = compile_formula(arena, parse("<R1>=1 P(x)", arena))
    final = forward(store, net, init_features(store, net))
    rows = final.rows()
    for v in range(store.n_entities):
        for c in range(net.dim):
            assert rows[v][c] == final.bit(v, c)


def _chain_net():
    store = load_store("a\tR1\tb")
    arena = FormulaArena()
    return store, compile_formula(arena, parse("<R1>=1 top", arena))


def test_aggregation_weight_other_than_1_rejected():
    store, net = _chain_net()
    net.inputs[1] = [("R1", 0, 2)]
    with pytest.raises(EvaluationError) as info:
        forward(store, net, init_features(store, net))
    assert str(info.value) == "aggregation weights must be 0 or 1"


@pytest.mark.parametrize("height", [1, 3])
def test_feature_height_other_than_store_size_rejected(height):
    store, net = _chain_net()
    x0 = FeatureMatrix(height, net.dim, [set() for _ in range(net.dim)])
    with pytest.raises(EvaluationError) as info:
        forward(store, net, x0)
    assert str(info.value) == f"feature height {height} does not match store size 2"


def test_unknown_atom_kind_rejected():
    store, net = _chain_net()
    net.atoms[0] = ("bottom", None)
    with pytest.raises(EvaluationError) as info:
        init_features(store, net)
    assert str(info.value) == "unknown atom kind 'bottom'"


def test_readout_past_the_columns_rejected():
    store, net = _chain_net()
    x = forward(store, net, init_features(store, net))
    with pytest.raises(EvaluationError) as info:
        readout(x, dataclasses.replace(net, out_index=net.dim))
    assert str(info.value) == f"out_index {net.dim} out of range"


def test_debug_check_catches_an_out_of_range_entity(monkeypatch):
    """A kernel that emits an entity past the store fails the closure check."""
    store, net = _chain_net()
    at_least = engine._at_least

    def leaky(store, *args):
        return {**at_least(store, *args), store.n_entities: 1}

    monkeypatch.setattr(engine, "_at_least", leaky)
    with pytest.raises(AssertionError) as info:
        forward(store, net, init_features(store, net), debug=True)
    assert str(info.value) == "binary-closure violation: column 1 holds 2"
