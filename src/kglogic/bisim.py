"""Relational color refinement, unraveling trees, and tree isomorphism.

These are the indistinguishability tools: two entities that keep equal colors
(equivalently, have isomorphic bounded-depth unraveling trees) cannot be told
apart by any counting-modal formula of matching depth over the same labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from .checker import BindingLike, resolve_bindings
from .errors import EvaluationError
from .store import TripleStore


@dataclass
class ColorMap:
    """Per-round color assignment; colors are dense ids stable across runs."""

    rounds: list[list[int]]

    def colors(self, rnd: int) -> list[int]:
        return self.rounds[rnd]

    def partition(self, rnd: int) -> dict[int, tuple[int, ...]]:
        groups: dict[int, list[int]] = {}
        for v, c in enumerate(self.rounds[rnd]):
            groups.setdefault(c, []).append(v)
        return {c: tuple(vs) for c, vs in groups.items()}


@dataclass
class UnravelNode:
    """One node of an unraveling tree; children follow incoming edges."""

    entity: int
    props: tuple
    children: tuple[tuple[str, "UnravelNode"], ...]

    def depth(self) -> int:
        if not self.children:
            return 0
        return 1 + max(child.depth() for _, child in self.children)


def _entity_props(
    store: TripleStore, bindings: dict[str, int]
) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    preds_at: list[list[str]] = [[] for _ in range(store.n_entities)]
    for pred in sorted(store.preds):
        for v in store.preds[pred]:
            preds_at[v].append(pred)
    consts_at: list[list[str]] = [[] for _ in range(store.n_entities)]
    for name in sorted(bindings):
        v = bindings[name]
        store.check_entity(v)
        consts_at[v].append(name)
    return [
        (tuple(preds_at[v]), tuple(consts_at[v])) for v in range(store.n_entities)
    ]


def _in_edges(store: TripleStore) -> list[list[tuple[int, int]]]:
    """Each entity's incoming edges as (head, relation id) pairs, unordered."""
    edges: list[list[tuple[int, int]]] = [[] for _ in range(store.n_entities)]
    for h, rid, t in store.triples:
        edges[t].append((h, rid))
    return edges


def _dense(signatures: list[Hashable]) -> list[int]:
    ids: dict[Hashable, int] = {}
    return [ids.setdefault(sig, len(ids)) for sig in signatures]


def color_refine(
    store: TripleStore, init: BindingLike = None, rounds: int = 0
) -> ColorMap:
    """Refine colors for `rounds` steps; round 0 is the initial coloring.

    Initial colors come from each entity's predicates plus any constants the
    labeling binds to it (uniform when both are absent).  Each step recolors
    an entity by its previous color together with the multiset of
    (neighbor color, relation) pairs over its incoming edges, each pair
    packed into the one int `color * n_relations + relation id`.  Packing is
    a bijection, so it yields the same classes as the pairs would.  Dense ids
    are assigned in first-seen order over the fixed entity ordering, so
    repeated runs produce identical maps.

    Two shortcuts leave the result unchanged.  A round is a function of the
    previous one alone, so once a round repeats the one before it, every
    later round is a copy of it.  An entity alone in its class keeps a unique
    signature whatever its in-edges are, so it takes the signature of its
    previous color alone; refinement only splits classes, so the classes and
    their first-seen order, hence the dense ids, stay the same.
    """
    if rounds < 0:
        raise EvaluationError(f"rounds must be >= 0, got {rounds}")
    bindings = resolve_bindings(init)
    props = _entity_props(store, bindings)
    in_edges = _in_edges(store)
    n_rel = store.n_relations

    colors = _dense(list(props))
    history = [colors]
    for _ in range(rounds):
        prev = history[-1]
        if len(history) > 1 and prev == history[-2]:
            history.append(list(prev))
            continue
        size = [0] * len(prev)
        for c in prev:
            size[c] += 1
        signatures = [
            (c,)
            if size[c] == 1
            else (c, tuple(sorted(prev[u] * n_rel + r for u, r in in_edges[v])))
            for v, c in enumerate(prev)
        ]
        history.append(_dense(signatures))
    return ColorMap(history)


def unravel(
    store: TripleStore, v: int, depth: int, labeling: BindingLike = None
) -> UnravelNode:
    """Tree of all incoming-edge paths of length <= depth ending at v.

    Node properties are copied from the source entities (predicates plus any
    constants bound by the labeling); edges carry relation names.  Cycles in
    the store unroll into repeated subtrees.
    """
    if depth < 0:
        raise EvaluationError(f"depth must be >= 0, got {depth}")
    store.check_entity(v)
    bindings = resolve_bindings(labeling)
    consts = sorted(bindings)
    for name in consts:
        store.check_entity(bindings[name])
    preds = sorted(store.preds)
    names = store.relation_names
    # by relation name, then head (in_index keeps heads sorted): ids need not
    # sort like names
    rids = sorted(range(store.n_relations), key=names.__getitem__)
    props: dict[int, tuple[tuple[str, ...], tuple[str, ...]]] = {}

    def build(entity: int, remaining: int) -> UnravelNode:
        if entity not in props:  # only the entities the tree visits
            props[entity] = (
                tuple(p for p in preds if entity in store.preds[p]),
                tuple(name for name in consts if bindings[name] == entity),
            )
        children: tuple[tuple[str, UnravelNode], ...] = ()
        if remaining > 0:
            children = tuple(
                (names[rid], build(head, remaining - 1))
                for rid in rids
                for head in store.in_index.get((rid, entity), ())
            )
        return UnravelNode(entity, props[entity], children)

    return build(v, depth)


def canonical_form(tree: UnravelNode) -> tuple:
    """Order-independent encoding; equal forms mean isomorphic trees."""
    return (
        tree.props,
        tuple(sorted((rel, canonical_form(child)) for rel, child in tree.children)),
    )


def trees_isomorphic(t1: UnravelNode, t2: UnravelNode) -> bool:
    """Property- and edge-label-respecting isomorphism of rooted trees."""
    return canonical_form(t1) == canonical_form(t2)
