"""The plain record classes keep the semantics their callers rely on: formula
nodes of different kinds never compare equal, frozen records reject
assignment, and mutable defaults are fresh per instance."""

import itertools

import pytest

from kglogic import FormulaArena, Labeling, SynthConfig, SynthDataset, TripleStore
from kglogic.formulas import And, Const, Diamond, Not, Pred, Top

FIELDS = [(Top, ()), (Pred, ("x",)), (Const, ("x",)), (Not, (1,)), (And, (1, 1)),
          (Diamond, (1, "x", 1))]
NODES = [kind(*fields) for kind, fields in FIELDS]


def test_nodes_of_different_kinds_never_compare_equal():
    assert Pred("x") != Const("x") and not Pred("x") == Const("x")
    for (i, a), (j, b) in itertools.product(enumerate(NODES), repeat=2):
        assert (a == b) is (i == j) and (a != b) is (i != j), (a, b)
    for node, (kind, fields) in zip(NODES, FIELDS):
        assert node != fields and fields != node and not node == fields, node
        assert node == kind(*fields) and hash(node) == hash(kind(*fields))
    assert Top() != () and () != Top()


def test_arena_interns_each_kind_apart():
    arena = FormulaArena()
    pred, const = arena.pred("x"), arena.const("x")
    assert pred != const
    assert arena.node(pred) == Pred("x") and arena.node(const) == Const("x")
    assert arena.node(const) != Pred("x")
    assert arena.pred("x") == pred and arena.const("x") == const


@pytest.mark.parametrize("node", NODES, ids=lambda n: type(n).__name__)
def test_nodes_reject_assignment(node):
    for field in ("name", "sub", "left", "right", "count", "relation"):
        with pytest.raises(AttributeError):
            setattr(node, field, 2)


def test_synth_config_rejects_assignment():
    cfg = SynthConfig("U", 5, seed=2, decoys=True)
    assert (cfg.relation_kind, cfg.n_instances, cfg.noise_triples, cfg.seed) == (
        "U", 5, None, 2)
    assert cfg.split == (0.8, 0.1, 0.1) and cfg.decoys is True
    with pytest.raises(AttributeError):
        cfg.seed = 3
    assert cfg.seed == 2


def test_mutable_defaults_are_fresh_per_instance():
    a, b = Labeling(), Labeling()
    a.bindings["h"] = 0
    a.origin["h"] = "query"
    assert b.bindings == {} and b.origin == {}
    store = TripleStore([("a", "R1", "b")])
    first, second = SynthDataset(store, [], []), SynthDataset(store, [], [])
    first.config["relation"] = "C"
    assert second.config == {}
