import os
import subprocess
import sys
from pathlib import Path

import pytest

from kglogic import (
    EvaluationError,
    FormulaArena,
    KGLogicError,
    SynthConfig,
    canonical_formula,
    gen_dataset,
    load_dataset,
    model_check,
    synthgen,
    write_dataset,
)
from kglogic.cli import main
from helpers import foc_u_tails

SRC = Path(__file__).resolve().parent.parent / "src"


def test_chain_instance_counts():
    dataset = gen_dataset(SynthConfig("C", n_instances=1, noise_triples=0, seed=0))
    assert len(dataset.store.triples) == 3
    assert len(dataset.targets) == 1
    assert dataset.targets[0][1] == "C"


def test_hub_instance_counts_and_truth():
    dataset = gen_dataset(SynthConfig("I", n_instances=1, noise_triples=0, seed=0))
    assert len(dataset.store.triples) == 5
    store = dataset.store
    arena = FormulaArena()
    fid = canonical_formula(arena, "I")
    h, _, t, _ = dataset.targets[0]
    table = model_check(store, arena, fid, {"h": store.entity_id(h)})
    assert table.row_set(fid) == {store.entity_id(t)}


def test_decoy_instance_counts():
    dataset = gen_dataset(
        SynthConfig("U", n_instances=1, noise_triples=0, seed=0, decoys=True)
    )
    assert len(dataset.store.triples) == 11  # 5 rule edges + 6 decoy edges
    roles = {role for _, _, role in dataset.ground}
    assert "decoy_tail" in roles and "fork" in roles
    assert len(dataset.targets) == 1  # the decoy tail gets no target


def test_ground_truth_soundness_with_noise():
    for kind, decoys in (("C", False), ("I", False), ("U", True)):
        cfg = SynthConfig(kind, n_instances=8, noise_triples=60, seed=9, decoys=decoys)
        dataset = gen_dataset(cfg)
        store = dataset.store
        arena = FormulaArena()
        fid = canonical_formula(arena, "Uprime" if kind == "U" else kind)
        forks = {i: e for i, e, role in dataset.ground if role == "fork"}
        heads = {i: e for i, e, role in dataset.ground if role == "head"}
        tails = {i: e for i, e, role in dataset.ground if role == "tail"}
        for idx in heads:
            binding = {"h": store.entity_id(heads[idx])}
            if kind == "U":
                binding["c"] = store.entity_id(forks[idx])
            table = model_check(store, arena, fid, binding)
            assert table.row_set(fid) == {store.entity_id(tails[idx])}


def test_noise_neutrality_for_fork_join():
    cfg = SynthConfig("U", n_instances=10, noise_triples=100, seed=21, decoys=True)
    dataset = gen_dataset(cfg)
    store = dataset.store
    for h, _, t, _ in dataset.targets:
        assert foc_u_tails(store, store.entity_id(h)) == {store.entity_id(t)}


def test_seed_determinism(tmp_path):
    cfg = SynthConfig("I", n_instances=12, noise_triples=40, seed=77)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    write_dataset(gen_dataset(cfg), d1)
    write_dataset(gen_dataset(cfg), d2)
    for name in (
        "triples.tsv",
        "targets_train.tsv",
        "targets_valid.tsv",
        "targets_test.tsv",
        "ground.tsv",
        "config.txt",
    ):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_different_seeds_differ(tmp_path):
    base = SynthConfig("C", n_instances=10, noise_triples=30, seed=1)
    other = SynthConfig("C", n_instances=10, noise_triples=30, seed=2)
    assert (
        gen_dataset(base).store.to_triples_text()
        != gen_dataset(other).store.to_triples_text()
    )


def test_split_fractions():
    dataset = gen_dataset(SynthConfig("C", n_instances=100, noise_triples=0, seed=4))
    counts = {
        split: len(dataset.targets_for(split))
        for split in ("train", "valid", "test")
    }
    assert counts == {"train": 80, "valid": 10, "test": 10}


def test_noise_count_exact():
    cfg = SynthConfig("C", n_instances=10, noise_triples=50, seed=3)
    dataset = gen_dataset(cfg)
    assert len(dataset.store.triples) == 30 + 50
    assert dataset.config["noise_triples"] == 50


def test_default_noise_is_twice_support():
    dataset = gen_dataset(SynthConfig("C", n_instances=5, seed=6))
    assert dataset.config["noise_triples"] == 2 * dataset.config["support_triples"]
    assert len(dataset.store.triples) == 3 * 15


def test_rejection_budget_error():
    # a single chain instance has 4 entities and 3 relations: far fewer legal
    # noise triples than requested
    cfg = SynthConfig("C", n_instances=1, noise_triples=100, seed=0)
    with pytest.raises(KGLogicError, match="noise"):
        gen_dataset(cfg)


def test_decoys_require_u():
    with pytest.raises(EvaluationError, match="decoys"):
        SynthConfig("C", decoys=True).validate()


def test_bad_split_rejected():
    with pytest.raises(EvaluationError, match="split"):
        SynthConfig("C", split=(0.5, 0.2, 0.2)).validate()


@pytest.mark.parametrize(
    "cfg, message",
    [
        (SynthConfig("X"), "relation kind must be one of C, I, U, got 'X'"),
        (SynthConfig("C", -1), "n_instances must be >= 0"),
        (SynthConfig("C", noise_triples=-1), "noise_triples must be >= 0"),
    ],
    ids=["kind", "instances", "noise"],
)
def test_bad_config_rejected(cfg, message):
    with pytest.raises(EvaluationError) as info:
        cfg.validate()
    assert str(info.value) == message


def test_verification_catches_a_lying_evaluator(monkeypatch):
    """A tail evaluator that always reports the intended tail lets noise
    through that completes extra chains; the model checker rejects them.
    C numbers an instance's entities h, z1, z2, t, so its tail is h + 3."""
    rule = synthgen._RULES["C"]
    lying = rule.el._replace(tails=lambda adj, h: {h + 3})
    monkeypatch.setitem(synthgen._RULES, "C", rule._replace(el=lying, ql=lying))
    with pytest.raises(KGLogicError, match=r"^instance \d+: .* holds at \["):
        gen_dataset(SynthConfig("C", 20, seed=1))


def test_roundtrip_through_files(tmp_path):
    cfg = SynthConfig("U", n_instances=5, noise_triples=20, seed=13, decoys=True)
    dataset = gen_dataset(cfg)
    write_dataset(dataset, tmp_path)
    loaded = load_dataset(tmp_path)
    assert loaded.store.to_triples_text() == dataset.store.to_triples_text()
    assert loaded.targets == dataset.targets
    assert loaded.ground == dataset.ground
    assert loaded.config["relation"] == "U"
    assert loaded.config["decoys"] == 1


@pytest.mark.parametrize(
    "cfg, argv, message",
    [
        (SynthConfig("C", 0, noise_triples=5),
         ["--relation", "C", "--instances", "0", "--noise", "5"],
         "cannot generate noise for an empty dataset"),
        (SynthConfig("C", 1, noise_triples=45, seed=0),
         ["--relation", "C", "--instances", "1", "--noise", "45", "--seed", "0"],
         "noise rejection budget exhausted; use fewer noise triples"),
    ],
    ids=["empty", "exhausted"],
)
def test_noise_errors(tmp_path, capsys, cfg, argv, message):
    """Both noise-loop errors, from the library and as one line and exit 2
    from `kglogic gen`, which then creates no output directory."""
    with pytest.raises(KGLogicError) as exc:
        gen_dataset(cfg)
    assert str(exc.value) == message
    out = tmp_path / "out"
    assert main(["gen", *argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"kglogic gen: error: {message}\n"
    assert not out.exists()


# Run in a fresh interpreter: free lists that earlier tests leave behind move
# the traced peak by several percent.
_PEAK = """
import sys, tracemalloc
from kglogic import SynthConfig, gen_dataset
kind, n, seed, decoys = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
tracemalloc.start()
dataset = gen_dataset(SynthConfig(kind, n, seed=seed, decoys=decoys == "True"))
kept, peak = tracemalloc.get_traced_memory()
print(len(dataset.store.triples), dataset.config["support_triples"], kept, peak)
"""


@pytest.mark.parametrize(
    "cfg",
    [SynthConfig("U", 300, seed=1, decoys=True), SynthConfig("I", 300, seed=1),
     SynthConfig("C", 300, seed=1)],
    ids=["U-decoys", "I", "C"],
)
def test_gen_peak_stays_within_1_8x_what_it_keeps(cfg):
    # noise rejection's set-valued adjacency and its copy of every edge as a
    # name triple, alive until verification ended, put the peak at 2.4-2.7x
    argv = [cfg.relation_kind, cfg.n_instances, cfg.seed, cfg.decoys]
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK, *map(str, argv)], capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    triples, support, kept, peak = map(int, proc.stdout.split())
    assert triples == 3 * support
    assert peak <= 1.8 * kept, (peak, kept)
