"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they are used to check:
ranking statistics are enumerated position by position, the fork-join rule is
evaluated by nested loops over witnesses, and subformula counts are taken on
the unshared syntax tree.
"""

import random

from kglogic import FormulaArena, TripleStore, constants_in
from kglogic.formulas import And, Const, Diamond, Not, Pred, Top


def random_store(
    rng: random.Random,
    max_entities: int = 30,
    max_relations: int = 4,
    max_preds: int = 3,
    edge_factor: float = 2.0,
) -> TripleStore:
    n = rng.randint(1, max_entities)
    nr = rng.randint(1, max_relations)
    np_ = rng.randint(0, max_preds)
    entities = [f"e{i}" for i in range(n)]
    relations = [f"R{j + 1}" for j in range(nr)]
    triples = []
    seen = set()
    for _ in range(rng.randint(0, max(1, int(edge_factor * n)))):
        trip = (
            entities[rng.randrange(n)],
            relations[rng.randrange(nr)],
            entities[rng.randrange(n)],
        )
        if trip not in seen:
            seen.add(trip)
            triples.append(trip)
    preds = []
    for k in range(np_):
        pname = f"P{k + 1}"
        for e in entities:
            if rng.random() < 0.3:
                preds.append((pname, e))
    return TripleStore(
        triples, preds, entity_order=entities, relation_order=relations
    )


def random_formula(
    rng: random.Random,
    arena: FormulaArena,
    relations,
    preds=(),
    constants=(),
    max_depth: int = 4,
    max_count: int = 3,
    size: int = 12,
):
    relations = list(relations)
    preds = list(preds)
    constants = list(constants)

    def go(depth: int, budget: int):
        options = ["top"]
        if preds:
            options += ["pred", "pred"]
        if constants:
            options += ["const", "const"]
        if budget > 1:
            options += ["not", "not", "and", "and"]
            if relations and depth > 0:
                options += ["diamond"] * 3
        kind = options[rng.randrange(len(options))]
        if kind == "top":
            return arena.top(), 1
        if kind == "pred":
            return arena.pred(preds[rng.randrange(len(preds))]), 1
        if kind == "const":
            return arena.const(constants[rng.randrange(len(constants))]), 1
        if kind == "not":
            sub, used = go(depth, budget - 1)
            return arena.neg(sub), used + 1
        if kind == "and":
            left, u1 = go(depth, max(1, (budget - 1) // 2))
            right, u2 = go(depth, max(1, budget - 1 - u1))
            return arena.conj(left, right), u1 + u2 + 1
        n = rng.randint(1, max_count)
        rel = relations[rng.randrange(len(relations))]
        sub, used = go(depth - 1, budget - 1)
        return arena.diamond(n, rel, sub), used + 1

    fid, _ = go(max_depth, size)
    return fid


def random_instance(rng: random.Random, max_entities: int = 30, max_depth: int = 4):
    """A (store, arena, formula, binding) quadruple for oracle-equivalence runs."""
    store = random_store(rng, max_entities=max_entities)
    constants = []
    if rng.random() < 0.5:
        constants.append("h")
        if rng.random() < 0.4:
            constants.append("c1")
    pred_vocab = sorted(store.preds)
    if rng.random() < 0.3:
        pred_vocab = pred_vocab + ["P_absent"]  # empty extension is legal
    arena = FormulaArena()
    fid = random_formula(
        rng,
        arena,
        store.relation_names,
        preds=pred_vocab,
        constants=constants,
        max_depth=max_depth,
    )
    # in name order: set order follows the hash seed, and so would the draws
    binding = {
        name: rng.randrange(store.n_entities)
        for name in sorted(constants_in(arena, fid))
    }
    return store, arena, fid, binding


def naive_subformula_count(arena: FormulaArena, fid: int) -> int:
    """Size of the unshared syntax tree (duplicates counted every time)."""
    node = arena.node(fid)
    if isinstance(node, (Top, Pred, Const)):
        return 1
    if isinstance(node, (Not, Diamond)):
        return 1 + naive_subformula_count(arena, node.sub)
    if isinstance(node, And):
        return (
            1
            + naive_subformula_count(arena, node.left)
            + naive_subformula_count(arena, node.right)
        )
    raise AssertionError(node)


def foc_u_tails(store: TripleStore, h: int) -> set:
    """Fork-join rule by nested loops: some R1-child of h starts both branches."""
    rid = {name: store.relation_id(name) for name in ("R1", "R2", "R3", "R4", "R5")}
    tails = set()
    for c in store.successors(rid["R1"], h):
        left = {
            x
            for z2 in store.successors(rid["R2"], c)
            for x in store.successors(rid["R4"], z2)
        }
        right = {
            x
            for z3 in store.successors(rid["R3"], c)
            for x in store.successors(rid["R5"], z3)
        }
        tails |= left & right
    return tails


def brute_rank_stats(scores, target, known_true):
    """Filtered rank statistics by explicit enumeration of tie positions."""
    candidates = [v for v in range(len(scores)) if v == target or v not in known_true]
    above = [v for v in candidates if scores[v] > scores[target]]
    tied = [v for v in candidates if scores[v] == scores[target]]
    positions = [len(above) + i for i in range(1, len(tied) + 1)]
    rank = sum(positions) / len(positions)
    hits = lambda k: sum(1 for p in positions if p <= k) / len(positions)
    rr = sum(1.0 / p for p in positions) / len(positions)
    return rank, hits, rr
