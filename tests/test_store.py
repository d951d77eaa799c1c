import random
import tracemalloc

import pytest

from kglogic import (
    INVERSE_SUFFIX,
    KGLogicError,
    SynthConfig,
    TripleFileError,
    TripleStore,
    augment_inverses,
    gen_dataset,
    load_store,
)
from helpers import random_store


def test_load_basic():
    store = load_store("a\tR1\tb\nb\tR2\tc")
    assert store.n_entities == 3
    assert store.n_relations == 2
    assert len(store.triples) == 2


def test_load_empty():
    store = load_store("")
    assert store.n_entities == 0
    assert store.n_relations == 0
    assert store.triples == set()


def test_load_dedup():
    store = load_store("a\tR1\tb\na\tR1\tb")
    assert len(store.triples) == 1


def test_adopted_store_sorts_and_dedups_its_groups():
    store = TripleStore._adopt(["a", "b", "c"], ["R"], {0: {0: [2, 1, 2]}})
    assert store.successors(0, 0) == [1, 2]
    assert store.triples == {(0, 0, 1), (0, 0, 2)}
    assert store.entity_id("c") == 2 and store.relation_name(0) == "R"


def test_triples_act_as_a_set():
    store = load_store("a\tR1\tb\na\tR1\tc\nb\tR2\ta\na\tR1\tb")
    a, b, c = (store.entity_id(e) for e in "abc")
    r1, r2 = store.relation_id("R1"), store.relation_id("R2")
    want = {(a, r1, b), (a, r1, c), (b, r2, a)}
    assert store.triples == want and set(store.triples) == want
    assert len(store.triples) == 3
    assert (a, r1, c) in store.triples and (c, r1, a) not in store.triples
    assert store.triples - {(a, r1, b)} == {(a, r1, c), (b, r2, a)}
    assert store.triples | {(c, r2, c)} == want | {(c, r2, c)}


def test_triples_hold_nothing_but_3_tuples():
    """Anything but a 3-tuple is not a member; wherever a set of the same
    triples answers, the view answers the same."""
    store = load_store("a\tR1\tb")
    as_set = set(store.triples)
    for other in ((0, 0), (0, 0, 1, 0), 1, "abc", None, frozenset({0})):
        assert (other in store.triples) is (other in as_set) is False
    assert ({(0, 0)} <= store.triples) is ({(0, 0)} <= as_set) is False
    assert (store.triples >= {(0, 0)}) is (as_set >= {(0, 0)}) is False
    assert store.triples.isdisjoint({(0, 0), 5}) is as_set.isdisjoint({(0, 0), 5})
    assert store.triples.isdisjoint({(0, 0), 5}) is True
    assert (0, 0, 1) in store.triples and [0, 0, 1] not in store.triples


def test_ids_follow_the_given_orders_then_first_appearance():
    rows = [("c", "R3", "a"), ("a", "R1", "d"), ("d", "R2", "c")]
    store = TripleStore(
        rows, entity_order=["b", "a", "b"], relation_order=["R2", "R1", "R2"]
    )
    assert store.entity_names == ["b", "a", "c", "d"]
    assert store.relation_names == ["R2", "R1", "R3"]
    for i, name in enumerate(store.entity_names):
        assert store.entity_id(name) == i and store.entity_name(i) == name
    for i, name in enumerate(store.relation_names):
        assert store.relation_id(name) == i and store.relation_name(i) == name
    assert store.n_entities == 4 and store.n_relations == 3
    assert {(store.entity_name(h), store.relation_name(r), store.entity_name(t))
            for h, r, t in store.triples} == set(rows)
    aug = augment_inverses(store)
    assert aug.entity_names == store.entity_names
    assert aug.relation_names == store.relation_names + [
        name + INVERSE_SUFFIX for name in store.relation_names
    ]
    assert store.triples <= aug.triples


def test_load_malformed_line_reports_lineno():
    with pytest.raises(TripleFileError, match="line 2"):
        load_store("a\tR1\tb\na\tR1")


def test_preds_unknown_entity():
    with pytest.raises(TripleFileError, match="unknown entity"):
        load_store("a\tR1\tb", "red\tzz")


def test_preds_loaded():
    store = load_store("a\tR1\tb", "red\ta\nred\tb\nblue\ta")
    assert store.preds["red"] == {store.entity_id("a"), store.entity_id("b")}
    assert store.preds["blue"] == {store.entity_id("a")}


def test_neighbors():
    store = load_store("a\tR1\tb")
    a, b = store.entity_id("a"), store.entity_id("b")
    r1 = store.relation_id("R1")
    assert store.neighbors(b, r1) == {a}
    assert store.neighbors(a, r1) == set()
    store2 = load_store("a\tR1\tb\nc\tR1\tb")
    assert store2.neighbors(store2.entity_id("b"), store2.relation_id("R1")) == {
        store2.entity_id("a"),
        store2.entity_id("c"),
    }


def test_neighbors_invalid_ids():
    store = load_store("a\tR1\tb")
    with pytest.raises(KGLogicError):
        store.neighbors(99, 0)
    with pytest.raises(KGLogicError):
        store.neighbors(0, 99)


def test_augment_inverses():
    store = augment_inverses(load_store("a\tR1\tb"))
    assert store.n_relations == 2
    inv = store.relation_id("R1" + INVERSE_SUFFIX)
    a, b = store.entity_id("a"), store.entity_id("b")
    assert store.neighbors(a, inv) == {b}
    assert len(store.triples) == 2


def test_augment_empty():
    store = augment_inverses(load_store(""))
    assert store.n_entities == 0
    assert store.triples == set()


def test_augment_twice_rejected():
    store = augment_inverses(load_store("a\tR1\tb"))
    with pytest.raises(TripleFileError, match="already exists"):
        augment_inverses(store)


def test_augment_preserves_out_degree():
    store = load_store("a\tR1\tb\na\tR2\tc")
    aug = augment_inverses(store)
    assert aug.out_degree[aug.entity_id("a")] == 2
    assert aug.out_degree[aug.entity_id("b")] == 0
    assert aug.out_degree[aug.entity_id("c")] == 0


def test_out_degree_counts_outgoing():
    store = load_store("a\tR1\tb\na\tR1\tc\nb\tR2\ta")
    assert store.out_degree[store.entity_id("a")] == 2
    assert store.out_degree[store.entity_id("b")] == 1
    assert store.out_degree[store.entity_id("c")] == 0


def _check_index(store: TripleStore, index: str, degrees: dict) -> None:
    if index == "neighbors":
        for r in range(store.n_relations):
            for t in range(store.n_entities):
                heads = {h for h, r2, t2 in store.triples if (r2, t2) == (r, t)}
                assert store.neighbors(t, r) == heads
    elif index == "successors":
        for r in range(store.n_relations):
            for h in range(store.n_entities):
                tails = sorted(t for h2, r2, t in store.triples if (h2, r2) == (h, r))
                assert store.successors(r, h) == tails
    else:
        assert store.out_degree == degrees


def test_lazy_views_mirror_triples():
    # each lazily built view, on a fresh store and after another was read
    indices = ("neighbors", "successors", "out_degree")
    rng = random.Random(7)
    shuffler = random.Random(8)  # apart from rng, so the stores drawn stay the same
    for _ in range(25):
        raw = random_store(rng, max_entities=15)
        named = [
            (raw.entity_name(h), raw.relation_name(r), raw.entity_name(t))
            for h, r, t in raw.triples
        ]
        counts = {v: 0 for v in range(raw.n_entities)}
        for h, _r, _t in raw.triples:
            counts[h] += 1
        repeated = named * 3
        shuffler.shuffle(repeated)
        fresh = {
            "plain": lambda: TripleStore(
                named, entity_order=raw.entity_names,
                relation_order=raw.relation_names,
            ),
            # every row three times, shuffled: each view is deduplicated
            "repeated": lambda: TripleStore(
                repeated, entity_order=raw.entity_names,
                relation_order=raw.relation_names,
            ),
            # an augmented store counts the original relations only
            "augmented": lambda: augment_inverses(raw),
        }
        for make in fresh.values():
            for first in indices:
                store = make()
                _check_index(store, first, counts)
                for index in indices:
                    _check_index(store, index, counts)


def _canonical(store: TripleStore):
    triples = {
        (store.entity_name(h), store.relation_name(r), store.entity_name(t))
        for h, r, t in store.triples
    }
    preds = {
        (p, store.entity_name(v)) for p, vs in store.preds.items() for v in vs
    }
    degrees = {store.entity_name(v): d for v, d in store.out_degree.items()}
    return triples, preds, degrees


def test_serialize_roundtrip():
    rng = random.Random(13)
    for _ in range(20):
        raw = random_store(rng, max_entities=12)
        # the file format cannot carry preds of entities absent from the
        # triples, so start the round trip from a file-loadable store
        reachable = {v for h, _, t in raw.triples for v in (h, t)}
        preds_text = "".join(
            f"{p}\t{raw.entity_name(v)}\n"
            for p in sorted(raw.preds)
            for v in sorted(raw.preds[p])
            if v in reachable
        )
        store = load_store(raw.to_triples_text(), preds_text or None)
        reloaded = load_store(store.to_triples_text(), store.to_preds_text() or None)
        got_triples, got_preds, got_deg = _canonical(reloaded)
        want_triples, want_preds, want_deg = _canonical(store)
        assert got_triples == want_triples
        assert got_preds == want_preds
        for name, deg in got_deg.items():
            assert deg == want_deg[name]


def test_self_loops_and_parallel_relations_allowed():
    store = load_store("a\tR1\ta\na\tR2\ta")
    assert len(store.triples) == 2
    assert store.out_degree[store.entity_id("a")] == 2


def test_store_keeps_at_most_160_bytes_per_triple():
    # a set of id tuples with successor lists built from it kept 216
    text = gen_dataset(SynthConfig("U", 2000, seed=1, decoys=True)).store.to_triples_text()
    tracemalloc.start()
    try:
        store = load_store(text)
        store.successors(0, 0)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept / len(store.triples) <= 160, kept / len(store.triples)
