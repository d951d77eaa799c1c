"""Constant bindings: query labeling and out-degree entity labeling."""

from __future__ import annotations

from itertools import permutations
from typing import Iterable, Iterator, Optional

from .errors import EvaluationError
from .store import TripleStore

QUERY_CONSTANT = "h"
LABELING_MODES = ("none", "query", "el")
# ranking mode -> the labeling it scores under
MODE_TO_LABELING = {"era": "none", "ql": "query", "el": "el"}
DEFAULT_ERA_PAIR = ("top", "top", "and")


class Labeling:
    """Map from constant names to entities, with the origin of each binding.

    Origins are "query" (the query head), "el" (out-degree labeling), or
    "manual".  EL bindings are injective by construction: each labeled entity
    gets its own constant name.
    """

    def __init__(self, bindings: Optional[dict] = None, origin: Optional[dict] = None):
        self.bindings: dict[str, int] = {} if bindings is None else bindings
        self.origin: dict[str, str] = {} if origin is None else origin

    def el_entities(self) -> list[int]:
        return sorted(
            {v for name, v in self.bindings.items() if self.origin.get(name) == "el"}
        )


def query_label(h: int) -> Labeling:
    """Bind the query constant to the head entity."""
    return Labeling({QUERY_CONSTANT: h}, {QUERY_CONSTANT: "query"})


def check_degree(d: int) -> None:
    """Reject a negative out-degree threshold for entity labeling."""
    if d < 0:
        raise EvaluationError(f"degree threshold must be >= 0, got {d}")


def el_label(store: TripleStore, d: int, h: int) -> Labeling:
    """Bind a fresh constant to every entity whose out-degree exceeds d.

    Constants are named el_<entity id> in ascending id order, and the query
    constant is bound to h as well.
    """
    check_degree(d)
    store.check_entity(h)
    lab = query_label(h)
    for v in range(store.n_entities):
        if store.out_degree.get(v, 0) > d:
            name = f"el_{v}"
            lab.bindings[name] = v
            lab.origin[name] = "el"
    return lab


def _forward_ball(store: TripleStore, start: int, hops: int) -> set[int]:
    reached = {start}
    frontier = {start}
    for _ in range(hops):
        nxt: set[int] = set()
        for v in frontier:
            for rid in range(store.n_relations):
                for t in store.successors(rid, v):
                    if t not in reached:
                        reached.add(t)
                        nxt.add(t)
        frontier = nxt
    return reached


def ground_constants(
    formula_constants: set[str],
    lab: Labeling,
    store: TripleStore,
    within_depth_of: Optional[tuple[int, int]] = None,
) -> list[dict[str, int]]:
    """Enumerate bindings for the formula's constants under a labeling.

    Constants already bound by `lab` keep their bindings.  Every remaining
    (abstract) constant ranges injectively over the EL-labeled entities,
    optionally restricted to entities reachable from `within_depth_of[0]` in
    at most `within_depth_of[1]` forward hops.  Returns the empty list when
    abstract constants exist but no candidate entities do.
    """
    bound = {
        name: lab.bindings[name]
        for name in sorted(formula_constants)
        if name in lab.bindings
    }
    abstract = sorted(set(formula_constants) - set(bound))
    candidates = lab.el_entities()
    if within_depth_of is not None:
        ball = _forward_ball(store, *within_depth_of)
        candidates = [v for v in candidates if v in ball]
    return _permute(bound, abstract, candidates)


def ground_queries(
    formula_constants: set[str],
    lab: Labeling,
    store: TripleStore,
    heads: Iterable[int],
    hops: int,
) -> Iterator[list[dict[str, int]]]:
    """ground_constants for each head h in turn, with @h rebound to h and the
    candidates restricted to h's forward ball of `hops` hops.

    The labeling is read once for all heads (its own binding of @h is
    ignored), and each head's groundings are built only when it is reached.
    """
    rest = set(formula_constants) - {QUERY_CONSTANT}
    bound = {name: lab.bindings[name] for name in sorted(rest) if name in lab.bindings}
    abstract = sorted(rest - set(bound))
    el_set = set(lab.el_entities()) if abstract else set()
    for h in heads:
        if QUERY_CONSTANT in formula_constants:
            bound[QUERY_CONSTANT] = h
        ball = _forward_ball(store, h, hops) if abstract else set()
        yield _permute(bound, abstract, sorted(ball & el_set))


def _permute(
    bound: dict[str, int], abstract: list[str], candidates: list[int]
) -> list[dict[str, int]]:
    """`bound` extended by every injective assignment of abstract constants."""
    out = []
    for combo in permutations(candidates, len(abstract)):
        g = dict(bound)
        g.update(zip(abstract, combo))
        out.append(g)
    return out
