"""Lane-batched engine passes against one-lane passes, the model checker, and a
naive per-lane integer evaluation of arbitrary networks."""

import random

import pytest

from helpers import random_formula, random_store
from kglogic import (
    FormulaArena,
    compile_formula,
    constants_in,
    enumerate_subformulas,
    forward,
    forward_lanes,
    init_features,
    load_store,
    model_check,
    net_from_text,
    parse,
)
from kglogic.formulas import Diamond, Not


def _masks(bindings, names):
    """const_masks for a batch: bit i of masks[name][v] when lane i binds name to v."""
    masks = {name: {} for name in names}
    for i, binding in enumerate(bindings):
        for name, v in binding.items():
            masks[name][v] = masks[name].get(v, 0) | 1 << i
    return masks


def _lane(col, i):
    return {v for v, mask in col.items() if mask >> i & 1}


def test_batched_pass_equals_one_lane_passes_and_model_checker():
    rng = random.Random(2024)
    lanes_seen, counts, negations = set(), 0, 0
    for case in range(150):
        store = random_store(rng, max_entities=12, edge_factor=2.5)
        arena = FormulaArena()
        fid = random_formula(
            rng, arena, store.relation_names, preds=sorted(store.preds) + ["P_absent"],
            constants=("h", "c1", "c2"), max_count=3, size=14,
        )
        nodes = [arena.node(f) for f in enumerate_subformulas(arena, fid)]
        counts += any(isinstance(n, Diamond) and n.count >= 2 for n in nodes)
        negations += any(isinstance(n, Not) for n in nodes)
        consts = sorted(constants_in(arena, fid))
        # every third batch crosses 64 lanes
        lanes = rng.randint(65, 100) if case % 3 == 0 else rng.randint(1, 64)
        lanes_seen.add(lanes)
        bindings = [
            {name: rng.randrange(store.n_entities) for name in consts}
            for _ in range(lanes)
        ]
        net = compile_formula(arena, fid)
        cols = forward_lanes(store, net, _masks(bindings, consts), lanes, debug=True)
        order = enumerate_subformulas(arena, fid)
        for i, binding in enumerate(bindings):
            single = forward(store, net, init_features(store, net, binding), debug=True)
            table = model_check(store, arena, fid, binding)
            for col in range(net.dim):
                assert _lane(cols[col], i) == single.cols[col], (case, i, col)
                assert _lane(cols[col], i) == table.row_set(order[col]), (case, i, col)
    assert max(lanes_seen) > 64 and min(lanes_seen) < 10
    assert counts > 40 and negations > 40


# Hand-written networks outside what compile_formula emits: combination
# weights other than +-1, nonzero biases on every kind of column, three wires
# into one column, and a diamond column with a positive bias.
HAND_NETS = [
    """dim\t4
layers\t3
out_index\t3
bias\t0 0 2 -1
atom\t0\tconst\th
atom\t1\tpred\tP1
comb\t0\t0\t1
comb\t1\t1\t1
comb\t0\t2\t2
comb\t1\t2\t-3
agg\tR1\t0\t2\t1
comb\t2\t3\t2
agg\tR2\t1\t3\t1
agg\tR1\t2\t3\t1
""",
    """dim\t3
layers\t4
out_index\t2
bias\t0 1 -2
atom\t0\ttop
comb\t0\t1\t-3
agg\tR1\t0\t1\t1
agg\tR2\t0\t1\t1
comb\t1\t2\t3
comb\t0\t2\t-1
agg\tR1\t1\t2\t1
""",
    """dim\t4
layers\t2
out_index\t3
bias\t0 0 -1 0
atom\t0\tconst\th
atom\t1\tconst\tc1
comb\t0\t0\t1
comb\t1\t1\t1
comb\t0\t2\t1
agg\tR1\t0\t2\t1
agg\tR2\t1\t2\t1
comb\t2\t3\t2
comb\t1\t3\t-3
agg\tR1\t2\t3\t1
""",
]


def _random_net_text(rng, relations):
    """A random valid net: up to three wires a column, weights in [-3, 3]."""
    dim = rng.randint(2, 6)
    bias = [rng.randint(-3, 3) for _ in range(dim)]
    lines = [f"dim\t{dim}", f"layers\t{rng.randint(0, 5)}", f"out_index\t{dim - 1}",
             "bias\t" + " ".join(map(str, bias))]
    atoms = [("top",), ("pred", "P1"), ("const", "h"), ("const", "c1")]
    for col in range(dim):
        if rng.random() < 0.4:
            lines.append("\t".join(("atom", str(col)) + rng.choice(atoms)))
    for col in range(dim):
        wires = set()
        for _ in range(rng.randint(0, 3)):
            rel = rng.choice([None, None] + list(relations))
            wires.add((rel, rng.randrange(dim)))
        for rel, row in sorted(wires, key=str):
            if rel is None:
                w = rng.choice([-3, -2, -1, 1, 2, 3])
                lines.append(f"comb\t{row}\t{col}\t{w}")
            else:
                lines.append(f"agg\t{rel}\t{row}\t{col}\t1")
    return "\n".join(lines) + "\n"


def _naive(store, net, binding):
    """Integer rounds for one lane, straight from the wires: entity sets per column."""
    n = store.n_entities
    x = []
    for col in range(net.dim):
        kind, name = net.atoms.get(col, (None, None))
        if kind == "top":
            x.append(set(range(n)))
        elif kind == "pred":
            x.append(set(store.preds.get(name, ())))
        elif kind == "const":
            x.append({binding[name]})
        else:
            x.append(set())
    for _ in range(net.layers):
        new = []
        for col, wires in enumerate(net.inputs):
            members = set()
            for v in range(n):
                total = net.bias[col]
                for rel, row, weight in wires:
                    if rel is None:
                        total += weight * (v in x[row])
                    else:
                        rid = store.relation_id(rel)
                        total += sum(1 for u in x[row] if v in store.successors(rid, u))
                if total >= 1:
                    members.add(v)
            new.append(members)
        x = new
    return x


def _check_against_naive(rng, net, store, lanes):
    """Compare every column of every lane; returns how many lanes' roots hold somewhere."""
    bindings = [
        {"h": rng.randrange(store.n_entities), "c1": rng.randrange(store.n_entities)}
        for _ in range(lanes)
    ]
    cols = forward_lanes(store, net, _masks(bindings, ("h", "c1")), lanes, debug=True)
    nonempty = 0
    for i, binding in enumerate(bindings):
        want = _naive(store, net, binding)
        for col in range(net.dim):
            assert _lane(cols[col], i) == want[col], (i, col)
        nonempty += bool(want[net.out_index])
    return nonempty


def test_hand_written_nets_equal_naive_reference():
    rng = random.Random(7)
    store = load_store(
        "a\tR1\tb\nc\tR1\tb\nb\tR2\td\na\tR2\td\nd\tR1\ta\nc\tR2\tc\nb\tR1\tc",
        "P1\ta\nP1\td",
    )
    for text in HAND_NETS:
        net = net_from_text(text)
        assert any(len(wires) == 3 for wires in net.inputs)
        held = [_check_against_naive(rng, net, store, n) for n in (1, 7, 70)]
        assert sum(held) > 0


def test_random_nets_equal_naive_reference():
    rng = random.Random(11)
    lanes = nonempty = 0
    for _ in range(120):
        store = random_store(rng, max_entities=8, max_relations=2, max_preds=1)
        store.preds.setdefault("P1", set())
        net = net_from_text(_random_net_text(rng, store.relation_names))
        batch = rng.choice([1, 3, 66])
        nonempty += _check_against_naive(rng, net, store, batch)
        lanes += batch
    assert 0.2 * lanes < nonempty < 0.8 * lanes


def test_zero_lane_batch():
    store = load_store("a\tR1\tb\nb\tR1\ta\na\tR2\ta", "P1\ta")
    arena = FormulaArena()
    fid = parse("(!<R1>=2 top & (P(P1) | !@h))", arena)
    net = compile_formula(arena, fid)
    cols = forward_lanes(store, net, {"h": {}}, 0, debug=True)
    assert cols == [{} for _ in range(net.dim)]
    for text in HAND_NETS:
        net = net_from_text(text)
        assert forward_lanes(store, net, {"h": {}, "c1": {}}, 0, debug=True) == [
            {} for _ in range(net.dim)
        ]


@pytest.mark.parametrize("mask", [0, 0b100, -1])
def test_closure_check_rejects_masks_outside_the_lanes(mask):
    store = load_store("a\tR1\tb")
    arena = FormulaArena()
    net = compile_formula(arena, parse("<R1>=1 @h", arena))
    with pytest.raises(AssertionError, match="lane mask"):
        forward_lanes(store, net, {"h": {0: mask}}, 2, debug=True)
