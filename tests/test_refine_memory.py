"""Colour refinement's memory peak stays a small constant per entity and
per edge.

Per-entity lists of `(head, relation id)` tuples and a signature tuple for
every entity in every round put the peak at about 150–200 bytes per entity
plus edge on these datasets (it varies with the interpreter's free lists);
flat in-edge lists, bare-int singleton signatures and shared id ints put it
at about 75–90, on Python 3.10 to 3.13.
"""

import tracemalloc

import pytest

from kglogic import SynthConfig, color_refine, gen_dataset

LIMIT = 120  # bytes per entity plus edge


@pytest.mark.parametrize(
    "cfg",
    [
        SynthConfig("U", 300, seed=1, decoys=True),
        SynthConfig("I", 300, seed=1),
        SynthConfig("C", 300, seed=1),
    ],
    ids=["U", "I", "C"],
)
def test_refine_peak_per_entity_and_edge(cfg):
    dataset = gen_dataset(cfg)
    store = dataset.store
    init = {"h": store.entity_id(dataset.targets_for("test")[0][0])}
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        color_refine(store, init, rounds=10)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak / (store.n_entities + len(store.triples)) <= LIMIT
