import random

import pytest

from kglogic import (
    EvaluationError,
    FormulaArena,
    SynthConfig,
    TripleStore,
    color_refine,
    el_label,
    gen_dataset,
    load_store,
    model_check,
    query_label,
    trees_isomorphic,
    unravel,
)
from helpers import random_formula, random_store


def test_isolated_entities_stay_uniform():
    store = TripleStore([], entity_order=["a", "b"])
    cm = color_refine(store, rounds=5)
    for r in range(6):
        assert cm.colors(r)[0] == cm.colors(r)[1]


def test_incoming_edge_separates():
    store = TripleStore([("a", "R1", "b")], entity_order=["a", "b", "c"])
    cm = color_refine(store, rounds=3)
    b, c = store.entity_id("b"), store.entity_id("c")
    assert cm.colors(0)[b] == cm.colors(0)[c]
    assert cm.colors(1)[b] != cm.colors(1)[c]


def test_refinement_is_monotone():
    rng = random.Random(11)
    for _ in range(30):
        store = random_store(rng, max_entities=12)
        cm = color_refine(store, rounds=6)
        for r in range(6):
            prev = cm.colors(r)
            nxt = cm.colors(r + 1)
            # same color later implies same color earlier
            seen = {}
            for v in range(store.n_entities):
                if nxt[v] in seen:
                    assert prev[v] == seen[nxt[v]]
                else:
                    seen[nxt[v]] = prev[v]


def test_fixed_point_persists():
    rng = random.Random(19)
    for _ in range(20):
        store = random_store(rng, max_entities=10)
        cm = color_refine(store, rounds=12)
        stable_at = None
        for r in range(12):
            if cm.partition(r) == cm.partition(r + 1):
                stable_at = r
                break
        assert stable_at is not None  # <= n rounds to stabilize
        for r in range(stable_at, 12):
            assert cm.partition(r) == cm.partition(r + 1)


def test_unravel_isolated():
    store = TripleStore([], entity_order=["v"])
    tree = unravel(store, 0, 5)
    assert tree.children == ()
    assert tree.depth() == 0


def test_unravel_single_edge():
    store = load_store("a\tR1\tb")
    tree = unravel(store, store.entity_id("b"), 1)
    assert len(tree.children) == 1
    rel, child = tree.children[0]
    assert rel == "R1"
    assert child.entity == store.entity_id("a")
    assert child.children == ()


def test_unravel_children_sorted_by_relation_name():
    # R2 is interned first, so relation ids sort opposite to names
    store = load_store("b\tR2\ta\nc\tR1\ta")
    assert store.relation_id("R2") < store.relation_id("R1")
    tree = unravel(store, store.entity_id("a"), 1)
    assert [(rel, child.entity) for rel, child in tree.children] == [
        ("R1", store.entity_id("c")),
        ("R2", store.entity_id("b")),
    ]


def test_unravel_depth_bound():
    store = load_store("a\tR1\ta")  # self-loop unrolls
    tree = unravel(store, 0, 4)
    assert tree.depth() == 4


def test_unravel_negative_depth_rejected():
    store = load_store("a\tR1\tb")
    with pytest.raises(EvaluationError) as info:
        unravel(store, 0, -1)
    assert str(info.value) == "depth must be >= 0, got -1"


def test_trees_isomorphic_basic():
    s1 = load_store("a\tR1\tb")
    s2 = load_store("x\tR1\ty")
    s3 = load_store("x\tR2\ty")
    t1 = unravel(s1, s1.entity_id("b"), 2)
    t2 = unravel(s2, s2.entity_id("y"), 2)
    t3 = unravel(s3, s3.entity_id("y"), 2)
    assert trees_isomorphic(t1, t1)
    assert trees_isomorphic(t1, t2)
    assert not trees_isomorphic(t1, t3)


def test_colors_iff_trees_random():
    rng = random.Random(37)
    for _ in range(25):
        store = random_store(rng, max_entities=8)
        cm = color_refine(store, rounds=3)
        trees = {
            (v, depth): unravel(store, v, depth)
            for v in range(store.n_entities)
            for depth in range(4)
        }
        for depth in range(4):
            colors = cm.colors(depth)
            for v in range(store.n_entities):
                for w in range(store.n_entities):
                    same_color = colors[v] == colors[w]
                    iso = trees_isomorphic(trees[(v, depth)], trees[(w, depth)])
                    assert same_color == iso, (v, w, depth)


def test_same_color_implies_same_formula_value():
    rng = random.Random(43)
    for _ in range(20):
        store = random_store(rng, max_entities=10)
        if store.n_entities == 0:
            continue
        h = rng.randrange(store.n_entities)
        lab = query_label(h)
        depth = 3
        cm = color_refine(store, lab, rounds=depth)
        colors = cm.colors(depth)
        arena = FormulaArena()
        for _ in range(15):
            fid = random_formula(
                rng,
                arena,
                store.relation_names,
                preds=sorted(store.preds),
                constants=("h",),
                max_depth=depth,
            )
            table = model_check(store, arena, fid, lab)
            row = table.row_set(fid)
            for v in range(store.n_entities):
                for w in range(v + 1, store.n_entities):
                    if colors[v] == colors[w]:
                        assert (v in row) == (w in row)


def _decoy_instance():
    cfg = SynthConfig("U", n_instances=1, noise_triples=0, decoys=True, seed=2)
    dataset = gen_dataset(cfg)
    roles = {role: e for _, e, role in dataset.ground}
    store = dataset.store
    return (
        store,
        store.entity_id(roles["head"]),
        store.entity_id(roles["tail"]),
        store.entity_id(roles["decoy_tail"]),
    )


def test_query_labeling_cannot_separate_decoy():
    store, h, t, dt = _decoy_instance()
    cm = color_refine(store, query_label(h), rounds=10)
    for r in range(11):
        assert cm.colors(r)[t] == cm.colors(r)[dt]
    t1 = unravel(store, t, 4, query_label(h))
    t2 = unravel(store, dt, 4, query_label(h))
    assert trees_isomorphic(t1, t2)


def test_entity_labeling_separates_decoy_at_round_two():
    store, h, t, dt = _decoy_instance()
    lab = el_label(store, 1, h)
    cm = color_refine(store, lab, rounds=10)
    assert cm.colors(0)[t] == cm.colors(0)[dt]
    assert cm.colors(1)[t] == cm.colors(1)[dt]
    for r in range(2, 11):
        assert cm.colors(r)[t] != cm.colors(r)[dt]


def test_colors_stable_across_runs():
    store = load_store("a\tR1\tb\nc\tR2\tb\nb\tR1\td")
    c1 = color_refine(store, rounds=4)
    c2 = color_refine(store, rounds=4)
    assert c1.rounds == c2.rounds
