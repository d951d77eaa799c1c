import random

import pytest

from kglogic import (
    EvaluationError,
    FormulaArena,
    FormulaSyntaxError,
    canonical_formula,
    constants_in,
    diamond_depth,
    enumerate_subformulas,
    format_formula,
    parse,
)
from kglogic.formulas import And, Const, Diamond, Not, Pred, Top
from helpers import naive_subformula_count, random_formula, random_store


def test_parse_diamond():
    arena = FormulaArena()
    fid = parse("<R1>=1 top", arena)
    node = arena.node(fid)
    assert isinstance(node, Diamond)
    assert node.count == 1 and node.relation == "R1"
    assert isinstance(arena.node(node.sub), Top)


def test_parse_conjunction_with_negation():
    arena = FormulaArena()
    fid = parse("(@h & !P(red))", arena)
    node = arena.node(fid)
    assert isinstance(node, And)
    assert arena.node(node.left) == Const("h")
    right = arena.node(node.right)
    assert isinstance(right, Not)
    assert arena.node(right.sub) == Pred("red")


def test_parse_chain_nesting():
    arena = FormulaArena()
    fid = parse("<R3>=1 <R2>=1 <R1>=1 @h", arena)
    rels = []
    node = arena.node(fid)
    while isinstance(node, Diamond):
        rels.append(node.relation)
        node = arena.node(node.sub)
    assert rels == ["R3", "R2", "R1"]
    assert node == Const("h")


def test_parse_disjunction_sugar():
    arena = FormulaArena()
    fid = parse("(P(a) | P(b))", arena)
    node = arena.node(fid)
    assert isinstance(node, Not)
    inner = arena.node(node.sub)
    assert isinstance(inner, And)
    assert isinstance(arena.node(inner.left), Not)
    assert isinstance(arena.node(inner.right), Not)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "(P(a) & P(b)",
        "<R1》=1 top",
        "<R1>1 top",
        "<R1>=x top",
        "P(a",
        "@",
        "top extra",
        "(P(a) ? P(b))",
        "<>=1 top",
    ],
)
def test_parse_errors_carry_position(text):
    arena = FormulaArena()
    with pytest.raises(FormulaSyntaxError) as err:
        parse(text, arena)
    assert isinstance(err.value.position, int)


def test_parse_zero_count_rejected():
    arena = FormulaArena()
    with pytest.raises(FormulaSyntaxError, match="at least 1"):
        parse("<R1>=0 top", arena)


def test_arena_rejects_a_zero_count_and_an_unknown_canonical_kind():
    arena = FormulaArena()
    top = arena.top()
    with pytest.raises(EvaluationError) as info:
        arena.diamond(0, "R1", top)
    assert str(info.value) == "diamond count must be at least 1, got 0"
    with pytest.raises(EvaluationError) as info:
        canonical_formula(arena, "U")
    assert str(info.value) == "unknown canonical formula kind 'U'"


def test_print_roundtrip_canonical():
    arena = FormulaArena()
    for kind in ("C", "I", "Uprime"):
        fid = canonical_formula(arena, kind)
        assert parse(format_formula(arena, fid), arena) == fid


def test_print_roundtrip_random():
    rng = random.Random(5)
    arena = FormulaArena()
    for _ in range(200):
        store = random_store(rng, max_entities=6)
        fid = random_formula(
            rng,
            arena,
            store.relation_names,
            preds=("P1", "P2"),
            constants=("h", "c1"),
        )
        assert parse(format_formula(arena, fid), arena) == fid


def test_enumerate_single():
    arena = FormulaArena()
    fid = parse("top", arena)
    assert enumerate_subformulas(arena, fid) == [fid]


def test_enumerate_chain_order():
    arena = FormulaArena()
    fid = canonical_formula(arena, "C")
    order = enumerate_subformulas(arena, fid)
    assert len(order) == 4
    texts = [format_formula(arena, f) for f in order]
    assert texts == [
        "@h",
        "<R1>=1 @h",
        "<R2>=1 <R1>=1 @h",
        "<R3>=1 <R2>=1 <R1>=1 @h",
    ]


def test_enumerate_shares_subformulas():
    arena = FormulaArena()
    fid = parse("(P(a) & P(a))", arena)
    assert len(enumerate_subformulas(arena, fid)) == 2
    assert naive_subformula_count(arena, fid) == 3


def test_enumerate_topological_random():
    rng = random.Random(17)
    arena = FormulaArena()
    for _ in range(100):
        fid = random_formula(
            rng, arena, ("R1", "R2"), preds=("P1",), constants=("h",)
        )
        order = enumerate_subformulas(arena, fid)
        assert order[-1] == fid
        pos = {f: i for i, f in enumerate(order)}
        for f in order:
            node = arena.node(f)
            for child in (
                getattr(node, "sub", None),
                getattr(node, "left", None),
                getattr(node, "right", None),
            ):
                if child is not None:
                    assert pos[child] < pos[f]


def test_hash_consing_conjunction_adds_one_node():
    arena = FormulaArena()
    fid = parse("<R2>=1 <R1>=1 P(q)", arena)
    before = len(arena)
    both = arena.conj(fid, fid)
    assert len(arena) == before + 1
    assert arena.node(both) == And(fid, fid)


def test_canonical_i_has_counting_clause():
    arena = FormulaArena()
    fid = canonical_formula(arena, "I")
    assert len(enumerate_subformulas(arena, fid)) == 7
    node = arena.node(fid)  # <R3>=1 (φs & chain)
    assert isinstance(node, Diamond) and node.relation == "R3"
    body = arena.node(node.sub)
    assert isinstance(body, And)
    phi_s = arena.node(body.left)
    assert isinstance(phi_s, Diamond)
    assert phi_s.count == 2 and phi_s.relation == "R4"
    assert isinstance(arena.node(phi_s.sub), Top)


def test_canonical_uprime_branches_share_pinned_fork():
    arena = FormulaArena()
    fid = canonical_formula(arena, "Uprime")
    node = arena.node(fid)
    assert isinstance(node, And)

    def innermost(f):
        n = arena.node(f)
        while isinstance(n, Diamond):
            f = n.sub
            n = arena.node(f)
        return f

    left_core = innermost(node.left)
    right_core = innermost(node.right)
    assert left_core == right_core  # hash-consed (… & @c)
    core = arena.node(left_core)
    assert isinstance(core, And)
    assert arena.node(core.right) == Const("c")
    assert constants_in(arena, fid) == {"h", "c"}


def test_diamond_depth():
    arena = FormulaArena()
    assert diamond_depth(arena, parse("top", arena)) == 0
    assert diamond_depth(arena, canonical_formula(arena, "C")) == 3
    assert diamond_depth(arena, canonical_formula(arena, "I")) == 3
    assert diamond_depth(arena, canonical_formula(arena, "Uprime")) == 3
    assert diamond_depth(arena, parse("(!<R1>=2 top & P(a))", arena)) == 1
