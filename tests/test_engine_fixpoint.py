"""Engine rounds stop at the fixpoint and still report every layer."""

import hashlib
import random

from helpers import random_formula, random_instance, random_store
from kglogic import (
    FormulaArena,
    SynthConfig,
    compile_formula,
    constants_in,
    engine,
    enumerate_subformulas,
    forward,
    forward_lanes,
    forward_rounds,
    gen_dataset,
    init_features,
    load_store,
    model_check,
    parse,
)
from kglogic.formulas import I_TEXT

# a -R1-> b -R1-> c: the diamond chain's columns stop changing after round 2
# of the net's 6 layers, and round 3 repeats round 2
CHAIN = "a\tR1\tb\nb\tR1\tc"
FORMULA = "!<R1>=1 <R1>=1 <R1>=1 <R1>=1 P(p)"

# sha256 of every round of the cases in _round_digest
ROUND_DIGEST = "74f9319e10a121170439343ae651a7b8d6e0d6fe6b174bab3b682e7c663ce135"


def test_fixpoint_before_last_layer(monkeypatch):
    store = load_store(CHAIN, "p\ta")
    arena = FormulaArena()
    fid = parse(FORMULA, arena)
    net = compile_formula(arena, fid)
    assert net.layers == 6
    table = model_check(store, arena, fid)
    rows = [table.row_set(g) for g in enumerate_subformulas(arena, fid)]

    checked = []
    real_check = engine._assert_closure

    def counting_check(cols, *args):
        checked.append(cols)
        real_check(cols, *args)

    monkeypatch.setattr(engine, "_assert_closure", counting_check)
    x0 = init_features(store, net, debug=True)
    final = forward(store, net, x0, debug=True)
    assert final.cols == rows and final.round == net.layers
    # the closure check ran after init and after each of the 3 rounds
    # computed, the last of which repeated its input
    assert len(checked) == 4 and checked[2] == checked[3]

    snaps = forward_rounds(store, net, init_features(store, net), debug=True)
    assert [s.round for s in snaps] == list(range(net.layers + 1))
    assert all(s.cols == rows for s in snaps[2:])
    assert snaps[1].cols != rows

    cols = forward_lanes(store, net, {}, 3, debug=True)
    assert [set(c) for c in cols] == rows
    assert all(mask == 0b111 for c in cols for mask in c.values())


def test_snapshots_repeat_the_final_round():
    rng = random.Random(31)
    for case in range(200):
        store, arena, fid, binding = random_instance(rng, max_entities=10)
        net = compile_formula(arena, fid)
        table = model_check(store, arena, fid, binding)
        rows = [table.row_set(g) for g in enumerate_subformulas(arena, fid)]
        snaps = forward_rounds(store, net, init_features(store, net, binding))
        assert len(snaps) == net.layers + 1, case
        assert snaps[-1].cols == rows, case
        # once two consecutive snapshots agree, all later ones agree with them
        first = next(
            r for r in range(1, len(snaps)) if snaps[r].cols == snaps[r - 1].cols
        )
        assert all(s.cols == rows for s in snaps[first - 1:]), case


def _lane_masks(rng, store, names, lanes):
    """const_masks for `lanes` random bindings of `names`."""
    masks = {name: {} for name in names}
    for i in range(lanes):
        for name in names:
            v = rng.randrange(store.n_entities)
            masks[name][v] = masks[name].get(v, 0) | 1 << i
    return masks


def _round_digest():
    """sha256 over every round's columns: forward_rounds snapshots of seeded
    random instances, then lane batches (all > 64 lanes) with every round's
    masks and forward_lanes' final columns."""
    digest = hashlib.sha256()
    rng = random.Random(1986)
    for _ in range(240):
        store, arena, fid, binding = random_instance(rng)
        # random_instance draws the binding in set order, which follows the
        # hash seed; redraw it in name order so the digest does not
        binding = {name: rng.randrange(store.n_entities) for name in sorted(binding)}
        net = compile_formula(arena, fid)
        snaps = forward_rounds(store, net, init_features(store, net, binding))
        for snap in snaps:
            digest.update(repr([sorted(c) for c in snap.cols]).encode())
    for _ in range(30):
        store = random_store(rng, max_entities=14, edge_factor=2.5)
        arena = FormulaArena()
        fid = random_formula(
            rng, arena, store.relation_names, preds=sorted(store.preds),
            constants=("h", "c1"), max_count=3, size=14,
        )
        net = compile_formula(arena, fid)
        lanes = rng.randint(65, 130)
        masks = _lane_masks(rng, store, sorted(constants_in(arena, fid)), lanes)
        cols = engine._init_lanes(store, net, masks, lanes, None)
        _, history = engine._run(
            store, net, cols, store.n_entities, lanes, None, record=True
        )
        final = forward_lanes(store, net, masks, lanes)
        assert final == history[-1]
        for cols in history + [final]:
            digest.update(repr([sorted(c.items()) for c in cols]).encode())
    return digest.hexdigest()


def test_every_round_matches_recorded_digest():
    # recorded before the engine skipped unchanged columns: any pass-through
    # that alters an intermediate round changes it, even with a correct fixpoint
    assert _round_digest() == ROUND_DIGEST


def test_unchanged_columns_are_not_recomputed(monkeypatch):
    # I_TEXT's four diamonds over 7 layers: the pass reaches its fixpoint in
    # round 5, so recomputing every column costs 20 _at_least calls.
    # `<R4>=2 top` (the only count-2 diamond) and `<R1>=1 @h` read atoms that
    # never change and are computed once; `<R2>=1 <R1>=1 @h` and the root,
    # `<R3>=1 (...)`, are computed twice each.
    data = gen_dataset(SynthConfig("I", n_instances=30, seed=5))
    store = data.store
    arena = FormulaArena()
    fid = parse(I_TEXT, arena)
    net = compile_formula(arena, fid)
    heads = sorted({store.entity_id(h) for h, _, _, _ in data.targets})
    masks = {"h": {v: 1 << i for i, v in enumerate(heads)}}

    calls = []
    real_at_least = engine._at_least

    def counting_at_least(store, rid, a, count, full):
        calls.append(count)
        return real_at_least(store, rid, a, count, full)

    monkeypatch.setattr(engine, "_at_least", counting_at_least)
    cols = forward_lanes(store, net, masks, len(heads))
    assert net.layers == 7 and len(heads) == 30
    assert calls.count(2) == 1
    assert len(calls) == 6
    order = enumerate_subformulas(arena, fid)
    for i, h in enumerate(heads):
        table = model_check(store, arena, fid, {"h": h})
        for col in range(net.dim):
            lane = {v for v, mask in cols[col].items() if mask >> i & 1}
            assert lane == table.row_set(order[col]), (h, col)
