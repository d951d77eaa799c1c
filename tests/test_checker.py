import random

import pytest

from kglogic import (
    EvaluationError,
    FormulaArena,
    OpCounter,
    canonical_formula,
    check_sentence_pair,
    enumerate_subformulas,
    load_store,
    model_check,
    parse,
    relations_in,
)
from kglogic.formulas import And, Not
from helpers import random_instance, random_store, random_formula

U_STRUCTURE = "h\tR1\tc\nc\tR2\tz2\nz2\tR4\tt\nc\tR3\tz3\nz3\tR5\tt"


def _sat_names(store, arena, fid, binding=None):
    table = model_check(store, arena, fid, binding)
    return {store.entity_name(v) for v in table.row_set(fid)}


def test_simple_diamond():
    store = load_store("a\tR1\tb")
    arena = FormulaArena()
    fid = parse("<R1>=1 top", arena)
    assert _sat_names(store, arena, fid) == {"b"}


def test_top_everywhere():
    store = load_store("a\tR1\tb\nc\tR1\td")
    arena = FormulaArena()
    fid = parse("top", arena)
    assert _sat_names(store, arena, fid) == {"a", "b", "c", "d"}


def test_counting_threshold():
    store = load_store("a\tR4\tc\nb\tR4\tc")
    arena = FormulaArena()
    fid = parse("<R4>=2 top", arena)
    assert _sat_names(store, arena, fid) == {"c"}


def test_uprime_on_fork_join_structure():
    # All six entities enumerated by hand: only t has both branches through
    # the pinned fork c.
    store = load_store(U_STRUCTURE)
    arena = FormulaArena()
    fid = canonical_formula(arena, "Uprime")
    binding = {"h": store.entity_id("h"), "c": store.entity_id("c")}
    assert _sat_names(store, arena, fid, binding) == {"t"}


def test_unbound_constant_named_in_error():
    store = load_store("a\tR1\tb")
    arena = FormulaArena()
    fid = parse("@missing", arena)
    with pytest.raises(EvaluationError, match="@missing"):
        model_check(store, arena, fid)


def test_unknown_relation_rejected():
    store = load_store("a\tR1\tb")
    arena = FormulaArena()
    fid = parse("<R9>=1 top", arena)
    with pytest.raises(EvaluationError, match="R9"):
        model_check(store, arena, fid)


def test_unknown_predicate_is_empty_row():
    store = load_store("a\tR1\tb")
    arena = FormulaArena()
    fid = parse("P(nowhere)", arena)
    assert _sat_names(store, arena, fid) == set()


def test_boolean_consistency_random():
    rng = random.Random(23)
    universe_checks = 0
    for _ in range(60):
        store, arena, fid, binding = random_instance(rng, max_entities=12)
        table = model_check(store, arena, fid, binding)
        everything = set(range(store.n_entities))
        for sub in enumerate_subformulas(arena, fid):
            node = arena.node(sub)
            if isinstance(node, And):
                assert table.row_set(sub) == (
                    table.row_set(node.left) & table.row_set(node.right)
                )
                universe_checks += 1
            elif isinstance(node, Not):
                assert table.row_set(sub) == everything - table.row_set(node.sub)
                universe_checks += 1
    assert universe_checks > 20


def test_relation_locality():
    rng = random.Random(29)
    for _ in range(40):
        store, arena, fid, binding = random_instance(rng, max_entities=10)
        if store.n_entities < 2:
            continue
        used = relations_in(arena, fid)
        fresh = "R_unused"
        assert fresh not in used
        triples = [
            (store.entity_name(h), store.relation_name(r), store.entity_name(t))
            for h, r, t in sorted(store.triples)
        ]
        triples.append((store.entity_name(0), fresh, store.entity_name(1)))
        preds = [
            (p, store.entity_name(v))
            for p in sorted(store.preds)
            for v in sorted(store.preds[p])
        ]
        bigger = type(store)(
            triples,
            preds,
            entity_order=store.entity_names,
            relation_order=store.relation_names + [fresh],
        )
        t1 = model_check(store, arena, fid, binding)
        t2 = model_check(bigger, arena, fid, binding)
        for sub in enumerate_subformulas(arena, fid):
            assert t1.row_set(sub) == t2.row_set(sub)


def test_op_counter_linear_bound():
    rng = random.Random(31)
    for _ in range(40):
        store, arena, fid, binding = random_instance(rng, max_entities=25)
        counter = OpCounter()
        model_check(store, arena, fid, binding, op_counter=counter)
        L = len(enumerate_subformulas(arena, fid))
        bound = 2 * L * (store.n_entities + len(store.triples) + 1)
        assert counter.ops <= bound, (counter.ops, bound)


def test_truth_table_invariants():
    store = load_store(U_STRUCTURE)
    arena = FormulaArena()
    fid = parse("(top & @h)", arena)
    table = model_check(store, arena, fid, {"h": store.entity_id("h")})
    top_id = parse("top", arena)
    assert table.row_set(top_id) == set(range(store.n_entities))
    const_id = parse("@h", arena)
    assert len(table.row_set(const_id)) == 1


def test_sentence_pair_combinators():
    store = load_store("x\tR1\ty")
    arena = FormulaArena()
    g1 = parse("<R1>=1 top", arena)  # true at y
    g2 = parse("top", arena)
    y = store.entity_id("y")
    x = store.entity_id("x")
    assert check_sentence_pair(store, arena, g1, g2, "and", y, x) == 1
    assert check_sentence_pair(store, arena, g1, g2, "not-left", y, x) == 0
    assert check_sentence_pair(store, arena, g1, g2, "not-left", x, y) == 1
    g3 = parse("P(none)", arena)
    assert check_sentence_pair(store, arena, g3, g3, "or", x, y) == 0
    assert check_sentence_pair(store, arena, g1, g3, "or", y, y) == 1


def test_sentence_pair_rejects_constants():
    store = load_store("x\tR1\ty")
    arena = FormulaArena()
    g1 = parse("@h", arena)
    g2 = parse("top", arena)
    with pytest.raises(EvaluationError, match="constant-free"):
        check_sentence_pair(store, arena, g1, g2, "and", 0, 1)


def test_sentence_pair_unknown_combinator():
    store = load_store("x\tR1\ty")
    arena = FormulaArena()
    g = parse("top", arena)
    with pytest.raises(EvaluationError, match="combinator"):
        check_sentence_pair(store, arena, g, g, "xor", 0, 1)


def test_monotone_growth_under_added_triples():
    # negation-free formulas can only gain satisfying entities when edges
    # are added
    rng = random.Random(41)
    for _ in range(30):
        store = random_store(rng, max_entities=10)
        if store.n_entities < 2:
            continue
        arena = FormulaArena()
        fid = random_formula(
            rng, arena, store.relation_names, preds=sorted(store.preds)
        )
        from kglogic import is_negation_free

        if not is_negation_free(arena, fid):
            continue
        extra = (
            store.entity_name(rng.randrange(store.n_entities)),
            store.relation_names[rng.randrange(store.n_relations)],
            store.entity_name(rng.randrange(store.n_entities)),
        )
        triples = [
            (store.entity_name(h), store.relation_name(r), store.entity_name(t))
            for h, r, t in sorted(store.triples)
        ] + [extra]
        bigger = type(store)(
            triples,
            [
                (p, store.entity_name(v))
                for p in sorted(store.preds)
                for v in sorted(store.preds[p])
            ],
            entity_order=store.entity_names,
            relation_order=store.relation_names,
        )
        before = model_check(store, arena, fid).row_set(fid)
        after = model_check(bigger, arena, fid).row_set(fid)
        assert before <= after


def test_unsupported_binding_object_rejected():
    store = load_store("x\tR1\ty")
    arena = FormulaArena()
    fid = parse("@h", arena)
    with pytest.raises(EvaluationError) as info:
        model_check(store, arena, fid, [("h", 0)])
    assert str(info.value) == "unsupported binding object [('h', 0)]"


def test_row_of_an_unevaluated_formula_rejected():
    store = load_store("x\tR1\ty")
    arena = FormulaArena()
    table = model_check(store, arena, parse("top", arena))
    other = parse("<R1>=1 top", arena)
    with pytest.raises(EvaluationError) as info:
        table.row_set(other)
    assert str(info.value) == f"formula id {other} was not evaluated"
