"""Knowledge-graph triple store: interning, adjacency indices, TSV ingestion.

Entities and relations are interned to dense integer ids in first-seen order.
TSV rows are streamed: each is interned as it is parsed and appended to the
store's successor lists, its one stored adjacency, so no list of rows and no
set of triples is built.  Every other adjacency view is derived from those
lists on its first read and cached, so a command builds only the views it
reads.
"""

from __future__ import annotations

from collections.abc import Set
from functools import cached_property
from itertools import accumulate, repeat
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

from .errors import EvaluationError, TripleFileError

# Suffix appended to a relation name by augment_inverses.
INVERSE_SUFFIX = "⁻¹"


class _TripleView(Set):
    """A store's (head, relation id, tail) triples as a read-only set, read
    from its successor lists on every access, so it holds no copy of them.
    Like a set of such triples, it holds nothing that is not a 3-tuple."""

    def __init__(self, succ: dict[int, dict[int, list[int]]]):
        self._succ = succ

    def __len__(self) -> int:
        return sum(sum(map(len, by_head.values())) for by_head in self._succ.values())

    def __iter__(self) -> Iterator[tuple[int, int, int]]:
        for r, by_head in self._succ.items():
            for h, tails in by_head.items():
                yield from zip(repeat(h), repeat(r), tails)

    def __contains__(self, triple) -> bool:
        if not isinstance(triple, tuple) or len(triple) != 3:
            return False
        h, r, t = triple
        return t in self._succ.get(r, {}).get(h, ())

    @classmethod
    def _from_iterable(cls, it) -> set:
        return set(it)  # what `|`, `&` and `-` return


class TripleStore:
    """A deduplicated set of (head, relation, tail) triples plus unary facts.

    Ids are dense, in first-seen order after `entity_order` and
    `relation_order` (a repeated name keeps its first place); the name lists
    are read off the id maps once the rows are in.  The one stored adjacency
    is `_succ`: relation id -> head id -> the sorted, distinct tail ids,
    filled as the rows stream in.  The engine, the checker and EL labeling
    read it through `successors`; `triples` is a set view of it.  Every other
    view is derived from it on its first read and cached: `in_edges`, the
    in-edges grouped by tail that only colour refinement reads; `in_index`,
    which maps (relation id, tail id) to the sorted head ids pointing at the
    tail and which `neighbors` and `bisim.unravel` read; and `out_degree[v]`,
    which EL labeling reads and which counts outgoing triples of `v` over the
    original (non-inverse) relations only.

    `triples` may be a one-pass iterator.  `preds` is read in full, after
    `triples`, before any of its entities is looked up, so a malformed
    predicate row is reported ahead of an unknown entity on an earlier one.
    """

    def __init__(
        self,
        triples: Iterable[tuple[str, str, str]],
        preds: Iterable[tuple[str, str]] = (),
        entity_order: Optional[Sequence[str]] = None,
        relation_order: Optional[Sequence[str]] = None,
    ):
        # dense ids in first-seen order, the given orders first; interning is
        # inline because this loop runs for every triple of every load
        entity_ids = self._entity_ids = {
            e: i for i, e in enumerate(dict.fromkeys(entity_order or ()))
        }
        relation_ids = self._relation_ids = {
            r: i for i, r in enumerate(dict.fromkeys(relation_order or ()))
        }
        succ = self._succ = {r: {} for r in relation_ids.values()}
        for head, rel, tail in triples:
            h = entity_ids.get(head)
            if h is None:
                h = entity_ids[head] = len(entity_ids)
            r = relation_ids.get(rel)
            if r is None:
                r = relation_ids[rel] = len(relation_ids)
                succ[r] = {}
            t = entity_ids.get(tail)
            if t is None:
                t = entity_ids[tail] = len(entity_ids)
            by_head = succ[r]
            tails = by_head.get(h)
            if tails is None:
                by_head[h] = [t]
            else:
                tails.append(t)
        # most groups hold one tail; only longer ones need sorting and dedup
        for by_head in succ.values():
            for tails in by_head.values():
                if len(tails) > 1:
                    tails.sort()
                    if len(set(tails)) < len(tails):
                        tails[:] = sorted(set(tails))
        self.triples = _TripleView(succ)
        # a dict keeps insertion order, which is id order
        self._entity_names = list(entity_ids)
        self._relation_names = list(relation_ids)

        self.preds: dict[str, set[int]] = {}
        for pred, entity in list(preds):
            eid = self._entity_ids.get(entity)
            if eid is None:
                raise TripleFileError(
                    f"predicate {pred!r} references unknown entity {entity!r}"
                )
            self.preds.setdefault(pred, set()).add(eid)

    @cached_property
    def in_edges(self) -> tuple[list[int], list[int], list[int]]:
        """Every edge's head and its relation id times n_entities, both
        grouped by tail, and the n_entities + 1 group offsets: entity v's
        in-edges are positions `offsets[v]` up to `offsets[v + 1]`.  Within
        a group, edges follow the successor lists' order."""
        n = len(self._entity_names)
        offsets = [0] * (n + 1)
        for by_head in self._succ.values():
            for tails in by_head.values():
                for t in tails:
                    offsets[t + 1] += 1
        offsets = list(accumulate(offsets))
        fill, heads, rels = offsets[:-1], [0] * offsets[-1], [0] * offsets[-1]
        for r, by_head in self._succ.items():
            rn = r * n  # one int object per relation, shared by its edges
            for h, tails in by_head.items():
                for t in tails:
                    i = fill[t]
                    fill[t] = i + 1
                    heads[i], rels[i] = h, rn
        return heads, rels, offsets

    @cached_property
    def in_index(self) -> dict[tuple[int, int], list[int]]:
        index: dict[tuple[int, int], list[int]] = {}
        for r, by_head in self._succ.items():
            for h, tails in by_head.items():
                for t in tails:
                    index.setdefault((r, t), []).append(h)
        for group in index.values():
            group.sort()
        return index

    @cached_property
    def out_degree(self) -> dict[int, int]:
        counts = [0] * len(self._entity_names)
        for by_head in self._succ.values():
            for h, tails in by_head.items():
                counts[h] += len(tails)
        return dict(enumerate(counts))

    @property
    def n_entities(self) -> int:
        return len(self._entity_names)

    @property
    def n_relations(self) -> int:
        return len(self._relation_names)

    @property
    def entity_names(self) -> list[str]:
        return list(self._entity_names)

    @property
    def relation_names(self) -> list[str]:
        return list(self._relation_names)

    def entity_id(self, name: str) -> int:
        eid = self._entity_ids.get(name)
        if eid is None:
            raise EvaluationError(f"unknown entity {name!r}")
        return eid

    def entity_name(self, eid: int) -> str:
        self.check_entity(eid)
        return self._entity_names[eid]

    def relation_id(self, name: str) -> int:
        rid = self._relation_ids.get(name)
        if rid is None:
            raise EvaluationError(f"unknown relation {name!r}")
        return rid

    def relation_name(self, rid: int) -> str:
        self.check_relation(rid)
        return self._relation_names[rid]

    # `type`, not isinstance, in both checks: True is an int but no id
    def check_entity(self, eid: int) -> None:
        if type(eid) is not int or not 0 <= eid < len(self._entity_names):
            raise EvaluationError(f"invalid entity id {eid!r}")

    def check_relation(self, rid: int) -> None:
        if type(rid) is not int or not 0 <= rid < len(self._relation_names):
            raise EvaluationError(f"invalid relation id {rid!r}")

    def neighbors(self, v: int, rel: int) -> set[int]:
        """Heads u with (u, rel, v) in the store (incoming direction)."""
        self.check_entity(v)
        self.check_relation(rel)
        return set(self.in_index.get((rel, v), ()))

    def successors(self, rel: int, v: int) -> list[int]:
        """Tails t with (v, rel, t) in the store."""
        return self._succ.get(rel, {}).get(v, [])

    def to_triples_text(self) -> str:
        # name-sorted, so the text is canonical under id renumbering
        lines = sorted(
            f"{self._entity_names[h]}\t{self._relation_names[r]}\t{self._entity_names[t]}"
            for h, r, t in self.triples
        )
        return "\n".join(lines) + ("\n" if lines else "")

    def to_preds_text(self) -> str:
        lines = sorted(
            f"{pred}\t{self._entity_names[eid]}"
            for pred in self.preds
            for eid in self.preds[pred]
        )
        return "\n".join(lines) + ("\n" if lines else "")


def read_text(path) -> str:
    """An input file's UTF-8 text; bytes that do not decode name the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise TripleFileError(
            f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x} at "
            f"offset {exc.start})"
        ) from None


def parse_tsv(text: str, n_fields: int, what: str) -> Iterator[list[str]]:
    """Rows of exactly `n_fields` tab-separated fields, each yielded as soon as
    it is checked; `what` names the input.  Blank lines are skipped."""
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != n_fields:
            raise TripleFileError(
                f"{what} line {lineno}: expected {n_fields} tab-separated fields, "
                f"got {len(fields)}"
            )
        yield fields


def load_store(triples_text: str, preds_text: Optional[str] = None) -> TripleStore:
    """Build a store from TSV text: `head<TAB>relation<TAB>tail` per line.

    The rows are streamed into the store as they are parsed, triples first.
    Duplicate triple lines collapse to one triple.  Predicate lines are
    `predicate<TAB>entity` and must reference entities present in the triples.
    """
    triples = parse_tsv(triples_text, 3, "triples")
    preds = parse_tsv(preds_text, 2, "predicates") if preds_text is not None else ()
    return TripleStore(triples, preds)


def augment_inverses(store: TripleStore) -> TripleStore:
    """Return a new store with a fresh inverse relation per original relation.

    Each triple (h, R, t) gains a mirror (t, R⁻¹, h).  Out-degrees are carried
    over unchanged from the input store.  Re-augmenting an already augmented
    store is rejected because the inverse names would collide.
    """
    names = store.relation_names
    existing = set(names)
    inverses = [name + INVERSE_SUFFIX for name in names]
    for inv in inverses:
        if inv in existing:
            raise TripleFileError(
                f"relation name {inv!r} already exists; cannot augment"
            )

    # the given orders fix every id, so the rows need no order of their own
    ent = store.entity_names
    triples = [(ent[h], names[r], ent[t]) for h, r, t in store.triples]
    triples += [(ent[t], inverses[r], ent[h]) for h, r, t in store.triples]
    preds = [
        (pred, ent[eid])
        for pred in sorted(store.preds)
        for eid in sorted(store.preds[pred])
    ]
    aug = TripleStore(triples, preds, ent, names + inverses)
    # set, not counted: counting would include the inverse edges
    aug.out_degree = dict(store.out_degree)
    return aug
