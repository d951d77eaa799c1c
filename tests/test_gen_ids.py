"""Generation works on entity ids end to end: its draws and its store.

Noise rejection draws each index with the loop `Random.randrange(n)` runs,
and the store adopts noise rejection's own numbering and groups.  Both must
give what the plain calls would: the same integers from the same stream, and
the store `TripleStore` builds from the support rows, then the noise rows in
the order they were accepted.
"""

import random

import pytest

from kglogic import SynthConfig, TripleStore, gen_dataset, synthgen

DRAW_SIZES = [1, 2, 3, 255, 256, 257, 5000, 50000]


@pytest.mark.parametrize("n", DRAW_SIZES)
def test_getrandbits_loop_draws_what_randrange_draws(n):
    """If this fails, Random.randrange(n) no longer draws by rejection from
    getrandbits(n.bit_length()), and noise rejection's draws, written out as
    that loop, no longer match it: every generated dataset would change."""
    k = n.bit_length()
    for seed in range(4):
        looped, reference = random.Random(seed), random.Random(seed)
        for i in range(500):
            r = looped.getrandbits(k)
            while r >= n:
                r = looped.getrandbits(k)
            assert r == reference.randrange(n), (
                f"randrange({n}) changed its draws (seed {seed}, draw {i})"
            )
        assert looped.getstate() == reference.getstate()


HANDOVER = [
    SynthConfig("U", 500, seed=1, decoys=True),
    SynthConfig("I", 300, seed=3),
    SynthConfig("C", 300, seed=4),
    SynthConfig("U", 50, seed=7),
    SynthConfig("I", 1000, seed=2),
]


def _template_rows(cfg):
    """The support rows in generation order, named from the rule catalogue
    alone, so that they do not depend on the ids generation gives them."""
    rule = synthgen._RULES[cfg.relation_kind]
    edges = rule.edges + (rule.decoy[1] if cfg.decoys else ())
    rows = []
    for index in range(cfg.n_instances):
        p = f"{cfg.relation_kind.lower()}{index}_"
        rows += [(p + u, r, p + w) for u, r, w in edges]
    return rows


@pytest.mark.parametrize(
    "cfg", HANDOVER,
    ids=[f"{c.relation_kind}-{c.n_instances}-s{c.seed}" for c in HANDOVER],
)
def test_generated_store_equals_one_built_from_rows(cfg, monkeypatch):
    made = []

    class Logged(synthgen._Adjacency):
        """Logs the edges that stay: a rejected edge is removed right after
        it was added."""

        def __init__(self, *args):
            super().__init__(*args)
            self.kept = []
            made.append(self)

        def add(self, h, r, t):
            added = super().add(h, r, t)
            if added:
                self.kept.append((h, r, t))
            return added

        def remove(self, h, r, t):
            assert self.kept.pop() == (h, r, t)
            super().remove(h, r, t)

    monkeypatch.setattr(synthgen, "_Adjacency", Logged)
    store = gen_dataset(cfg).store
    (adj,) = made
    names = store.entity_names
    rows = [(names[h], r, names[t]) for h, r, t in adj.kept]
    support = _template_rows(cfg)
    assert rows[:len(support)] == support
    assert len(rows) == len(support) + 2 * len(support)

    reference = TripleStore(rows)
    assert store.entity_names == reference.entity_names
    assert store.relation_names == reference.relation_names
    assert all(store.entity_id(e) == i for i, e in enumerate(names))
    assert all(store.relation_id(r) == i for i, r in enumerate(store.relation_names))
    # dict order included: the lists compare groups in iteration order
    assert [(r, list(by_head.items())) for r, by_head in store._succ.items()] == [
        (r, list(by_head.items())) for r, by_head in reference._succ.items()
    ]
    assert store.in_edges == reference.in_edges
    assert store.preds == reference.preds == {}
