"""Engine rounds stop at the fixpoint and still report every layer."""

import random

from helpers import random_instance
from kglogic import (
    FormulaArena,
    compile_formula,
    engine,
    enumerate_subformulas,
    forward,
    forward_lanes,
    forward_rounds,
    init_features,
    load_store,
    model_check,
    parse,
)

# a -R1-> b -R1-> c: the diamond chain's columns stop changing after round 2
# of the net's 6 layers, and round 3 repeats round 2
CHAIN = "a\tR1\tb\nb\tR1\tc"
FORMULA = "!<R1>=1 <R1>=1 <R1>=1 <R1>=1 P(p)"


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
