"""Execute a compiled network over a store: init, synchronous rounds, readout.

All arithmetic is exact integer; the clamp activation maps every coordinate
back into {0, 1}, so feature matrices are stored sparsely as one entity set
per column.  Rounds are synchronous with double buffering.  Set the
CML_KG_DEBUG=1 environment variable (or pass debug=True) to validate the
binary-closure invariant after initialization and after every round.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from .checker import BindingLike, resolve_bindings
from .compiler import CompiledNet
from .errors import EvaluationError
from .store import TripleStore

DEBUG_ENV_VAR = "CML_KG_DEBUG"


def debug_enabled(flag: Optional[bool]) -> bool:
    if flag is not None:
        return flag
    return os.environ.get(DEBUG_ENV_VAR, "") == "1"


@dataclass
class FeatureMatrix:
    """Binary entity-by-column state, stored as one entity set per column."""

    n_entities: int
    n_cols: int
    cols: list[set[int]]
    round: int = 0

    def bit(self, v: int, col: int) -> int:
        return 1 if v in self.cols[col] else 0

    def rows(self) -> list[list[int]]:
        out = [[0] * self.n_cols for _ in range(self.n_entities)]
        for col, members in enumerate(self.cols):
            for v in members:
                out[v][col] = 1
        return out


def _assert_closure(x: FeatureMatrix) -> None:
    for col, members in enumerate(x.cols):
        for v in members:
            if not isinstance(v, int) or not 0 <= v < x.n_entities:
                raise AssertionError(
                    f"binary-closure violation: column {col} holds {v!r}"
                )


def init_features(
    store: TripleStore,
    net: CompiledNet,
    binding: BindingLike = None,
    debug: Optional[bool] = None,
) -> FeatureMatrix:
    """Initial features: atomic columns light up where their atom holds.

    Top columns start all-ones, predicate columns follow store.preds, and a
    constant column holds exactly the one entity its name is bound to.
    """
    bindings = resolve_bindings(binding)
    n = store.n_entities
    cols: list[set[int]] = []
    for col in range(net.dim):
        atom = net.atoms.get(col)
        if atom is None:
            cols.append(set())
            continue
        kind, name = atom
        if kind == "top":
            cols.append(set(range(n)))
        elif kind == "pred":
            cols.append(set(store.preds.get(name, ())))
        elif kind == "const":
            if name not in bindings:
                raise EvaluationError(f"unbound constant '@{name}'")
            v = bindings[name]
            store.check_entity(v)
            cols.append({v})
        else:
            raise EvaluationError(f"unknown atom kind {kind!r}")
    x = FeatureMatrix(n, net.dim, cols, round=0)
    if debug_enabled(debug):
        _assert_closure(x)
    return x


def _run(
    store: TripleStore,
    net: CompiledNet,
    x0: FeatureMatrix,
    debug: Optional[bool],
    record: bool,
):
    if x0.n_cols != net.dim:
        raise EvaluationError(
            f"feature width {x0.n_cols} does not match network dim {net.dim}"
        )
    if x0.n_entities != store.n_entities:
        raise EvaluationError(
            f"feature height {x0.n_entities} does not match store size "
            f"{store.n_entities}"
        )
    dbg = debug_enabled(debug)
    # the net's wires with each relation name resolved to its id
    plans: list[list[tuple[Optional[int], int, int]]] = []
    for wires in net.inputs:
        if any(rel is not None and weight != 1 for rel, _, weight in wires):
            raise EvaluationError("aggregation weights must be 0 or 1")
        plans.append([
            (rel if rel is None else store.relation_id(rel), row, weight)
            for rel, row, weight in wires
        ])
    n = store.n_entities
    cols = [set(s) for s in x0.cols]
    history = [FeatureMatrix(n, net.dim, cols, 0)]

    for rnd in range(1, net.layers + 1):
        new_cols: list[set[int]] = []
        for col, plan in enumerate(plans):
            delta: dict[int, int] = {}
            for rid, row, weight in plan:
                if rid is None:
                    for v in cols[row]:
                        delta[v] = delta.get(v, 0) + weight
                else:
                    for u in cols[row]:
                        for t in store.successors(rid, u):
                            delta[t] = delta.get(t, 0) + 1
            b = net.bias[col]
            if b >= 1:
                members = set(range(n))
                for v, d in delta.items():
                    if b + d <= 0:
                        members.discard(v)
            else:
                members = {v for v, d in delta.items() if b + d >= 1}
            new_cols.append(members)
        # every round builds fresh sets, so snapshots can share them
        cols = new_cols
        if dbg:
            _assert_closure(FeatureMatrix(n, net.dim, cols, rnd))
        if record:
            history.append(FeatureMatrix(n, net.dim, cols, rnd))

    final = FeatureMatrix(n, net.dim, cols, net.layers)
    return final, history


def forward(
    store: TripleStore,
    net: CompiledNet,
    x0: FeatureMatrix,
    debug: Optional[bool] = None,
) -> FeatureMatrix:
    """Run net.layers synchronous rounds and return the final state."""
    final, _ = _run(store, net, x0, debug, record=False)
    return final


def forward_rounds(
    store: TripleStore,
    net: CompiledNet,
    x0: FeatureMatrix,
    debug: Optional[bool] = None,
) -> list[FeatureMatrix]:
    """Like forward, but returns the state after every round (round 0 first)."""
    _, history = _run(store, net, x0, debug, record=True)
    return history


def readout(x: FeatureMatrix, net: CompiledNet) -> list[int]:
    """Extract the root subformula's column as a per-entity bit vector."""
    if not 0 <= net.out_index < x.n_cols:
        raise EvaluationError(f"out_index {net.out_index} out of range")
    members = x.cols[net.out_index]
    return [1 if v in members else 0 for v in range(x.n_entities)]
