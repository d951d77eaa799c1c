"""Direct model checker: the ground truth every compiled network is tested against.

Evaluation is bottom-up over the subformula order.  A diamond `<R>=N f` holds
at v when at least N heads u with (u, R, v) in the store satisfy f.
"""

from __future__ import annotations

from typing import Callable, Optional

from .errors import EvaluationError
from .formulas import (
    And,
    Const,
    Diamond,
    FormulaArena,
    Not,
    Pred,
    Top,
    _children,
    constants_in,
)
from .store import TripleStore


class OpCounter:
    """Counts elementary bit operations performed by model_check."""

    def __init__(self, ops: int = 0):
        self.ops = ops


class TruthTable:
    """Per-subformula satisfying-entity sets over one store."""

    def __init__(self, n_entities: int, rows: dict[int, set[int]]):
        self.n_entities = n_entities
        self._rows = rows

    def row_set(self, fid: int) -> set[int]:
        if fid not in self._rows:
            raise EvaluationError(f"formula id {fid} was not evaluated")
        return self._rows[fid]

    def bit(self, fid: int, v: int) -> int:
        return 1 if v in self.row_set(fid) else 0

    def row_bits(self, fid: int) -> list[int]:
        row = self.row_set(fid)
        return [1 if v in row else 0 for v in range(self.n_entities)]


# a plain dict, a labeling.Labeling, or None
BindingLike = Optional[object]


def resolve_bindings(binding: BindingLike) -> dict[str, int]:
    """Accept a plain dict, a Labeling, or None."""
    if binding is None:
        return {}
    if isinstance(binding, dict):
        return binding
    bindings = getattr(binding, "bindings", None)
    if isinstance(bindings, dict):
        return bindings
    raise EvaluationError(f"unsupported binding object {binding!r}")


def model_check(
    store: TripleStore,
    arena: FormulaArena,
    root: int,
    binding: BindingLike = None,
    op_counter: Optional[OpCounter] = None,
    shared: Optional[dict[int, set[int]]] = None,
) -> TruthTable:
    """Evaluate every subformula of `root` over the store.

    Constants are resolved through `binding`; predicates missing from
    `store.preds` have empty extensions.  Raises on unbound constants and on
    relations absent from the store.

    `shared` carries the rows of constant-free subformulas between calls over
    the same store and arena: such a row does not depend on the binding, so a
    row found there is taken as is (no ops counted), and each one computed is
    added to it.
    """
    bindings = resolve_bindings(binding)
    n = store.n_entities
    rows: dict[int, set[int]] = {}
    ops = 0
    constant_free: set[int] = set()

    for fid, node in arena.subformulas(root):
        kind = type(node)
        if shared is not None:
            if fid in shared:
                rows[fid] = shared[fid]
                constant_free.add(fid)
                continue
            if kind is not Const and constant_free.issuperset(_children(node)):
                constant_free.add(fid)
        if kind is Diamond:
            rid = store.relation_id(node.relation)
            hits: dict[int, int] = {}
            for u in rows[node.sub]:
                tails = store.successors(rid, u)
                ops += len(tails) + 1
                for t in tails:
                    hits[t] = hits.get(t, 0) + 1
            row = {t for t, c in hits.items() if c >= node.count}
        elif kind is And:
            left, right = rows[node.left], rows[node.right]
            row = left & right
            ops += min(len(left), len(right))
        elif kind is Const:
            if node.name not in bindings:
                raise EvaluationError(f"unbound constant '@{node.name}'")
            v = bindings[node.name]
            store.check_entity(v)
            row = {v}
            ops += 1
        elif kind is Top:
            row = set(range(n))
            ops += n
        elif kind is Pred:
            row = set(store.preds.get(node.name, ()))
            ops += max(1, len(row))
        elif kind is Not:
            row = set(range(n)) - rows[node.sub]
            ops += n
        else:  # pragma: no cover - exhaustive over the AST
            raise EvaluationError(f"cannot evaluate node {node!r}")
        rows[fid] = row
        if fid in constant_free:
            shared[fid] = row
    if op_counter is not None:
        op_counter.ops += ops
    return TruthTable(n, rows)


# an era pair's score from b1 = g1 at the head and b2 = g2 at the tail
COMBINATORS: dict[str, Callable[[int, int], int]] = {
    "and": lambda b1, b2: b1 & b2,
    "or": lambda b1, b2: b1 | b2,
    "not-left": lambda b1, b2: 1 - b1,
}


def era_combinator(name: str) -> Callable[[int, int], int]:
    """The combinator `name` of a head/tail sentence pair, as a function of
    the two sentences' bits."""
    if name not in COMBINATORS:
        raise EvaluationError(f"unknown combinator {name!r}")
    return COMBINATORS[name]


def check_constant_free(arena: FormulaArena, g1: int, g2: int) -> None:
    """Reject a head/tail sentence pair in which either side names a constant."""
    for name, g in (("g1", g1), ("g2", g2)):
        consts = constants_in(arena, g)
        if consts:
            raise EvaluationError(
                f"{name} must be constant-free, found @{sorted(consts)[0]}"
            )


def check_sentence_pair(
    store: TripleStore,
    arena: FormulaArena,
    g1: int,
    g2: int,
    combinator: str,
    h: int,
    t: int,
) -> int:
    """Boolean combination of g1-at-head and g2-at-tail for constant-free g1, g2.

    This is exactly the semantics a score that multiplies or negates
    independently computed head and tail representations can realize.
    """
    combine = era_combinator(combinator)
    check_constant_free(arena, g1, g2)
    store.check_entity(h)
    store.check_entity(t)
    b1 = model_check(store, arena, g1).bit(g1, h)
    b2 = model_check(store, arena, g2).bit(g2, t)
    return combine(b1, b2)
