"""Relational color refinement, unraveling trees, and tree isomorphism.

These are the indistinguishability tools: two entities that keep equal colors
(equivalently, have isomorphic bounded-depth unraveling trees) cannot be told
apart by any counting-modal formula of matching depth over the same labels.
"""

from __future__ import annotations

from itertools import islice, repeat
from operator import add
from typing import Hashable

from .checker import BindingLike, resolve_bindings
from .errors import EvaluationError
from .store import TripleStore


class ColorMap:
    """Per-round color assignment; colors are dense ids stable across runs."""

    def __init__(self, rounds: list[list[int]]):
        self.rounds = rounds

    def colors(self, rnd: int) -> list[int]:
        return self.rounds[rnd]

    def partition(self, rnd: int) -> dict[int, tuple[int, ...]]:
        groups: dict[int, list[int]] = {}
        for v, c in enumerate(self.rounds[rnd]):
            groups.setdefault(c, []).append(v)
        return {c: tuple(vs) for c, vs in groups.items()}


class UnravelNode:
    """One node of an unraveling tree; children follow incoming edges."""

    def __init__(self, entity: int, props: tuple, children: tuple):
        self.entity, self.props = entity, props
        self.children: tuple[tuple[str, UnravelNode], ...] = children

    def depth(self) -> int:
        if not self.children:
            return 0
        return 1 + max(child.depth() for _, child in self.children)


# the round-0 properties of every entity without predicates or constants
NO_PROPS: tuple[tuple[str, ...], tuple[str, ...]] = ((), ())


def _entity_props(
    store: TripleStore, bindings: dict[str, int]
) -> dict[int, tuple[tuple[str, ...], tuple[str, ...]]]:
    """(predicates, bound constants), each name-sorted, of every entity that
    has some; every other entity's are `NO_PROPS`."""
    preds_at: dict[int, list[str]] = {}
    for pred in sorted(store.preds):
        for v in store.preds[pred]:
            preds_at.setdefault(v, []).append(pred)
    consts_at: dict[int, list[str]] = {}
    for name in sorted(bindings):
        v = bindings[name]
        store.check_entity(v)
        consts_at.setdefault(v, []).append(name)
    return {
        v: (tuple(preds_at.get(v, ())), tuple(consts_at.get(v, ())))
        for v in preds_at.keys() | consts_at.keys()
    }


def _signatures(
    prev: list[int], heads: list[int], rels: list[int], offsets: list[int]
) -> list[Hashable]:
    """Each entity's signature for the round after `prev`: its color alone if
    no other entity shares it, else its color and its sorted packed in-edges."""
    size = [0] * len(prev)
    for c in prev:
        size[c] += 1
    keys = list(map(add, map(prev.__getitem__, heads), rels))
    return [
        c if size[c] == 1 else (c, *sorted(keys[lo:hi]))
        for c, lo, hi in zip(prev, offsets, islice(offsets, 1, None))
    ]


def _dense(signatures: list[Hashable], ids: list[int]) -> list[int]:
    """Dense ids in first-seen order, taken from `ids`."""
    first = dict.fromkeys(signatures)
    for sig, i in zip(first, ids):
        first[sig] = i
    return list(map(first.__getitem__, signatures))


def color_refine(
    store: TripleStore, init: BindingLike = None, rounds: int = 0
) -> ColorMap:
    """Refine colors for `rounds` steps; round 0 is the initial coloring.

    Initial colors come from each entity's predicates plus any constants the
    labeling binds to it (uniform when both are absent).  Each step recolors
    an entity by its previous color together with the multiset of
    (neighbor color, relation) pairs over its incoming edges.  Dense ids
    are assigned in first-seen order over the fixed entity ordering, so
    repeated runs produce identical maps.

    Memory per entity and per edge is kept small.  Round 0 builds property
    tuples only for the entities that have predicates or constants; all
    others share `NO_PROPS`.  The in-edges are the store's flat lists
    grouped by tail (`TripleStore.in_edges`, derived once per store from its
    successor lists), not per-entity lists of pairs.  Each round packs
    every in-edge into the one int `color of head + relation id *
    n_entities`, a bijection because colors are below n_entities, so an
    entity's signature, its previous color followed by its sorted packed
    in-edges in one flat tuple, separates the same classes as the pairs
    would.  Every round takes its ids from one `range(n_entities)` list, so
    all rounds share those int objects.

    Two shortcuts leave the result unchanged.  A round is a function of the
    previous one alone, so once a round repeats the one before it, every
    later round is a copy of it.  An entity alone in its class keeps a unique
    signature whatever its in-edges are, so its signature is its previous
    color alone, a bare int, which equals no tuple signature; refinement
    only splits classes, so the classes and their first-seen order, hence
    the dense ids, stay the same.
    """
    if rounds < 0:
        raise EvaluationError(f"rounds must be >= 0, got {rounds}")
    props = _entity_props(store, resolve_bindings(init))
    ids = list(range(store.n_entities))
    history = [_dense(list(map(props.get, ids, repeat(NO_PROPS))), ids)]
    in_edges = store.in_edges
    for _ in range(rounds):
        prev = history[-1]
        if len(history) > 1 and prev == history[-2]:
            history.append(list(prev))
        else:
            history.append(_dense(_signatures(prev, *in_edges), ids))
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
    props = _entity_props(store, resolve_bindings(labeling))
    names, n = store.relation_names, store.n_entities
    heads, rels, offsets = store.in_edges

    def build(entity: int, remaining: int) -> UnravelNode:
        children: tuple[tuple[str, UnravelNode], ...] = ()
        if remaining > 0:
            # by relation name, then head: ids need not sort like names, and
            # a tail's in-edges follow the successor lists, not head order
            lo, hi = offsets[entity], offsets[entity + 1]
            edges = sorted(zip([names[r // n] for r in rels[lo:hi]], heads[lo:hi]))
            children = tuple((rel, build(head, remaining - 1)) for rel, head in edges)
        return UnravelNode(entity, props.get(entity, NO_PROPS), children)

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
