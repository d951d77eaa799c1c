"""Golden `kglogic bisim` output, and color refinement against a plain
reference that builds every entity's full signature in every round."""

import hashlib
import random

from helpers import random_store
from kglogic import TripleStore, color_refine, gen_dataset, write_dataset
from kglogic.cli import main
from test_golden_datasets import GOLDEN_CONFIGS

# SHA-256 over the golden configs in order: for query and then el labeling,
# with @h bound to the first test head, the stdout of bisim at 0, 3 and 12
# rounds (12 is past every stable round of these datasets)
BISIM_DIGEST = "df61f84ba91ff105795788e44d18abf70a51b43169306d07e93996a4bafff204"
ROUNDS = (0, 3, 12)


def test_golden_bisim_output(tmp_path, monkeypatch, capsys):
    # the echoed header holds the --kg path, so keep it relative
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    for i, cfg in enumerate(GOLDEN_CONFIGS):
        dataset = gen_dataset(cfg)
        write_dataset(dataset, str(i))
        head = dataset.targets_for("test")[0][0]
        for labeling in ("query", "el"):
            for rounds in ROUNDS:
                argv = [
                    "bisim", "--kg", f"{i}/triples.tsv", "--labeling", labeling,
                    "--bind", f"h={head}", "--rounds", str(rounds),
                ]
                assert main(argv) == 0
                out = capsys.readouterr().out
                rows = [line for line in out.splitlines() if line[:1] != "#"]
                assert len(rows) == (rounds + 1) * dataset.store.n_entities
                digest.update(out.encode())
    assert digest.hexdigest() == BISIM_DIGEST


def _reference(store: TripleStore, init, rounds: int) -> list[list[int]]:
    """Full signatures every round, from color_refine's round 0 coloring.

    Relation ids stand in for names: either separates the same classes, and
    dense ids depend only on the classes and the entity order."""
    in_edges = [[] for _ in range(store.n_entities)]
    for h, r, t in store.triples:
        in_edges[t].append((r, h))
    history = [color_refine(store, init, rounds=0).colors(0)]
    for _ in range(rounds):
        prev = history[-1]
        signatures = [
            (prev[v], tuple(sorted((prev[u], r) for r, u in in_edges[v])))
            for v in range(store.n_entities)
        ]
        ids = {}
        history.append([ids.setdefault(sig, len(ids)) for sig in signatures])
    return history


def test_color_refine_equals_full_signature_reference():
    rng = random.Random(66)
    late_stable = isolated = singletons = 0
    for case in range(300):
        edge_factor = rng.choice((0.5, 1.5))
        store = random_store(rng, max_entities=25, edge_factor=edge_factor)
        init = {}
        if rng.random() < 0.5:
            init["h"] = rng.randrange(store.n_entities)
        # past every stable round: a partition of n entities splits < n times
        rounds = store.n_entities + rng.randint(1, 4)
        expected = _reference(store, init, rounds)
        assert color_refine(store, init, rounds=rounds).rounds == expected, case
        stable = next(
            r for r in range(1, rounds + 1) if expected[r] == expected[r - 1]
        )
        late_stable += stable >= 3
        touched = {v for h, _, t in store.triples for v in (h, t)}
        isolated += len(touched) < store.n_entities
        singletons += any(
            row.count(c) == 1 for row in expected[:stable] for c in row
        )
    assert late_stable > 50 and isolated > 200 and singletons > 250


def test_color_refine_small_stores_many_relations():
    """At most 6 entities and up to 12 relations, so a packed in-edge's
    `relation id * n_entities` exceeds every color id; with predicates and
    isolated entities.  Every round equals the reference, and every round is
    its own list, stable ones too."""
    rng = random.Random(14)
    packed_past_colors = with_preds = isolated = 0
    for case in range(300):
        store = random_store(
            rng, max_entities=6, max_relations=12, edge_factor=rng.choice((0.5, 2.0))
        )
        init = {}
        if rng.random() < 0.5:
            init["h"] = rng.randrange(store.n_entities)
        rounds = store.n_entities + rng.randint(1, 4)
        cm = color_refine(store, init, rounds=rounds)
        assert cm.rounds == _reference(store, init, rounds), case
        for r in range(rounds):
            assert cm.rounds[r] is not cm.rounds[r + 1], (case, r)
        packed_past_colors += any(r > 0 for _, r, _ in store.triples)
        with_preds += bool(store.preds)
        touched = {v for h, _, t in store.triples for v in (h, t)}
        isolated += len(touched) < store.n_entities
    assert packed_past_colors > 150 and with_preds > 150 and isolated > 100


def test_color_refine_empty_store():
    cm = color_refine(TripleStore([]), rounds=3)
    assert cm.rounds == [[], [], [], []]
    assert len({id(row) for row in cm.rounds}) == 4


def test_packed_in_edges_keep_relations_apart():
    # A's in-edge comes from color 2 over R1 and B's from color 0 over R2:
    # packed with any multiplier below n_entities = 4, such as 2, they collide
    store = TripleStore(
        [("d", "R1", "a"), ("a", "R2", "b")], [("P1", "c"), ("P2", "d")],
        entity_order=["a", "b", "c", "d"], relation_order=["R1", "R2"],
    )
    cm = color_refine(store, rounds=1)
    assert cm.colors(0) == [0, 0, 1, 2]
    assert cm.colors(1)[0] != cm.colors(1)[1]
