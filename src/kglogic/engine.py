"""Execute a compiled network over a store: init, synchronous rounds, readout.

All arithmetic is exact integer, and the clamp activation maps every
coordinate back into {0, 1}.  One pass evaluates many bindings ("lanes") at
once: each column maps an entity to a lane mask, a Python int whose bit i is
set when the column holds at that entity in lane i (entities with a zero mask
are left out).  `forward_lanes` runs a batch of lanes; `init_features`,
`forward` and `forward_rounds` are its one-lane view over set-valued
`FeatureMatrix` columns.  Rounds are synchronous with double buffering and
semi-naive: after round 1, a column is recomputed only when one of its input
rows changed in the previous round, and any other column keeps its dict.
Rounds stop at the fixpoint: once no column changes, every later round would
repeat the last one, so the rest are not computed.  Set
the CML_KG_DEBUG=1 environment variable (or pass debug=True) to validate the
binary-closure invariant after initialization and after every round computed.
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

# One column of lane state: entity -> nonzero lane mask.
Lanes = dict[int, int]


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


def _assert_closure(cols: list[Lanes], n_entities: int, lanes: int) -> None:
    for col, members in enumerate(cols):
        for v, mask in members.items():
            if not isinstance(v, int) or not 0 <= v < n_entities:
                raise AssertionError(
                    f"binary-closure violation: column {col} holds {v!r}"
                )
            if type(mask) is not int or mask <= 0 or mask >> lanes:
                raise AssertionError(
                    f"binary-closure violation: column {col} has lane mask "
                    f"{mask!r} at {v} with {lanes} lanes"
                )


def _init_lanes(
    store: TripleStore,
    net: CompiledNet,
    const_masks: dict[str, Lanes],
    lanes: int,
    debug: Optional[bool],
) -> list[Lanes]:
    """Top and predicate columns hold in every lane; a constant column holds
    at each entity in the lanes that `const_masks[name]` binds to it."""
    n = store.n_entities
    full = (1 << lanes) - 1
    cols: list[Lanes] = []
    for col in range(net.dim):
        kind, name = net.atoms.get(col, (None, None))
        if kind is None:
            members: Lanes = {}
        elif kind == "top":
            members = dict.fromkeys(range(n), full)
        elif kind == "pred":
            members = dict.fromkeys(store.preds.get(name, ()), full)
        elif kind == "const":
            if name not in const_masks:
                raise EvaluationError(f"unbound constant '@{name}'")
            for v in const_masks[name]:
                store.check_entity(v)
            members = dict(const_masks[name])
        else:
            raise EvaluationError(f"unknown atom kind {kind!r}")
        cols.append(members if full else {})
    if debug_enabled(debug):
        _assert_closure(cols, n, lanes)
    return cols


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
    masks = {name: {v: 1} for name, v in resolve_bindings(binding).items()}
    cols = _init_lanes(store, net, masks, 1, debug)
    return FeatureMatrix(store.n_entities, net.dim, [set(c) for c in cols], 0)


def _conj(a: Lanes, b: Lanes) -> Lanes:
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for v, m in a.items():
        m &= b.get(v, 0)
        if m:
            out[v] = m
    return out


def _complement(a: Lanes, full: int, n: int) -> Lanes:
    out = dict.fromkeys(range(n), full) if full else {}
    for v, m in a.items():
        if m == full:
            del out[v]
        else:
            out[v] = full ^ m
    return out


def _at_least(store: TripleStore, rid: int, a: Lanes, count: int, full: int) -> Lanes:
    """Lanes where at least `count` incoming rid-neighbors hold in column a."""
    if count == 1:
        out: Lanes = {}
        for u, m in a.items():
            for t in store.successors(rid, u):
                out[t] = out.get(t, 0) | m
        return out
    # bit-sliced counters: planes[j] is bit j of each lane's counter.  It
    # starts at 2**width - count, so a lane carries out of the top plane when
    # its count-th input arrives; planes[width] collects those lanes
    width = count.bit_length()
    start = (1 << width) - count
    init = [full if start >> j & 1 else 0 for j in range(width)] + [0]
    planes_of: dict[int, list[int]] = {}
    for u, m in a.items():
        for t in store.successors(rid, u):
            planes = planes_of.get(t)
            if planes is None:
                planes = planes_of[t] = init.copy()
            carry = m
            for j in range(width):
                p = planes[j]
                planes[j] = p ^ carry
                carry &= p
                if not carry:
                    break
            else:
                planes[width] |= carry
    return {t: planes[width] for t, planes in planes_of.items() if planes[width]}


def _weighted(
    store: TripleStore,
    wires: list[tuple[Optional[int], int, int]],
    bias: int,
    cols: list[Lanes],
    full: int,
    n: int,
) -> Lanes:
    """Any other column: lanes where bias + the weighted inputs >= 1.

    Each entity keeps the lanes' sums as a signed (two's complement)
    bit-sliced integer that starts at bias - 1, wide enough not to overflow;
    the lanes whose sign plane stays clear hold.
    """
    terms: dict[int, list[tuple[int, int]]] = {}
    for rid, row, weight in wires:
        for u, m in cols[row].items():
            for t in (u,) if rid is None else store.successors(rid, u):
                terms.setdefault(t, []).append((m, weight))
    out = dict.fromkeys(range(n), full) if bias >= 1 and full else {}
    for v, pairs in terms.items():
        start = bias - 1
        width = (abs(start) + sum(abs(w) for _, w in pairs)).bit_length() + 1
        planes = [full if start >> j & 1 else 0 for j in range(width)]
        for m, w in pairs:
            carry = 0
            for j in range(width):
                add = m if w >> j & 1 else 0
                p = planes[j]
                planes[j] = p ^ add ^ carry
                carry = (p & add) | (carry & (p ^ add))
        m = full & ~planes[-1]
        if m:
            out[v] = m
        else:
            out.pop(v, None)
    return out


def _run(
    store: TripleStore,
    net: CompiledNet,
    cols: list[Lanes],
    height: int,
    lanes: int,
    debug: Optional[bool],
    record: bool,
) -> tuple[list[Lanes], list[list[Lanes]]]:
    """net.layers synchronous rounds over `lanes` lanes; the final columns and,
    with `record`, every round's columns (round 0 first).  A round recomputes
    only the columns with an input row that the round before changed, and the
    rounds stop at the first one that changes no column."""
    if len(cols) != net.dim:
        raise EvaluationError(
            f"feature width {len(cols)} does not match network dim {net.dim}"
        )
    if height != store.n_entities:
        raise EvaluationError(
            f"feature height {height} does not match store size {store.n_entities}"
        )
    dbg = debug_enabled(debug)
    n = store.n_entities
    full = (1 << lanes) - 1
    # each column's rule for one round, with relation names resolved to ids
    steps = []
    for wires, b in zip(net.inputs, net.bias):
        if any(rel is not None and weight != 1 for rel, _, weight in wires):
            raise EvaluationError("aggregation weights must be 0 or 1")
        plan = [
            (rel if rel is None else store.relation_id(rel), row, weight)
            for rel, row, weight in wires
        ]
        shape = [(rid is None, weight) for rid, _, weight in plan]
        rows = [row for _, row, _ in plan]
        if shape == [(True, 1)] and b == 0:
            steps.append(lambda c, r=rows[0]: c[r])
        elif shape == [(True, 1), (True, 1)] and b == -1:
            steps.append(lambda c, j=rows[0], k=rows[1]: _conj(c[j], c[k]))
        elif shape == [(True, -1)] and b == 1:
            steps.append(lambda c, r=rows[0]: _complement(c[r], full, n))
        elif shape == [(False, 1)] and b <= 0:
            steps.append(
                lambda c, rid=plan[0][0], r=rows[0], k=1 - b:
                _at_least(store, rid, c[r], k, full)
            )
        else:
            steps.append(lambda c, p=plan, b=b: _weighted(store, p, b, c, full, n))
    history = [cols] if record else []
    inputs = [{row for _, row, _ in wires} for wires in net.inputs]
    stale = [True] * net.dim  # round 1 computes every column

    for _ in range(net.layers):
        # a column whose input rows did not change last round would rebuild
        # the same dict, so it keeps it; no dict is mutated after its round,
        # so snapshots can share them
        nxt = [step(cols) if s else c for step, s, c in zip(steps, stale, cols)]
        if dbg:
            _assert_closure(nxt, n, lanes)
        changed = {c for c, (a, b) in enumerate(zip(nxt, cols)) if a is not b and a != b}
        if not changed:
            break
        stale = [not changed.isdisjoint(ins) for ins in inputs]
        cols = nxt
        if record:
            history.append(cols)
    if record:
        history += [cols] * (net.layers + 1 - len(history))
    return cols, history


def forward_lanes(
    store: TripleStore,
    net: CompiledNet,
    const_masks: dict[str, Lanes],
    lanes: int,
    debug: Optional[bool] = None,
) -> list[Lanes]:
    """Initialize and run `lanes` bindings in one pass.

    const_masks[name][v] has bit i set when lane i binds @name to entity v;
    every constant of the net needs an entry.  Returns the final columns, each
    mapping an entity to the nonzero mask of the lanes where it holds.
    """
    cols = _init_lanes(store, net, const_masks, lanes, debug)
    final, _ = _run(store, net, cols, store.n_entities, lanes, debug, record=False)
    return final


def _one_lane(x0: FeatureMatrix) -> list[Lanes]:
    return [dict.fromkeys(members, 1) for members in x0.cols]


def forward(
    store: TripleStore,
    net: CompiledNet,
    x0: FeatureMatrix,
    debug: Optional[bool] = None,
) -> FeatureMatrix:
    """Run net.layers synchronous rounds and return the final state."""
    final, _ = _run(store, net, _one_lane(x0), x0.n_entities, 1, debug, record=False)
    return FeatureMatrix(x0.n_entities, net.dim, [set(c) for c in final], net.layers)


def forward_rounds(
    store: TripleStore,
    net: CompiledNet,
    x0: FeatureMatrix,
    debug: Optional[bool] = None,
) -> list[FeatureMatrix]:
    """Like forward, but returns the state after every round (round 0 first)."""
    _, history = _run(store, net, _one_lane(x0), x0.n_entities, 1, debug, record=True)
    return [
        FeatureMatrix(x0.n_entities, net.dim, [set(c) for c in cols], rnd)
        for rnd, cols in enumerate(history)
    ]


def readout(x: FeatureMatrix, net: CompiledNet) -> list[int]:
    """Extract the root subformula's column as a per-entity bit vector."""
    if not 0 <= net.out_index < x.n_cols:
        raise EvaluationError(f"out_index {net.out_index} out of range")
    members = x.cols[net.out_index]
    return [1 if v in members else 0 for v in range(x.n_entities)]
