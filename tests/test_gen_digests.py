"""File digests of generated datasets that noise rejection must reproduce."""

import hashlib

import pytest

from kglogic import SynthConfig, gen_dataset, synthgen, write_dataset

# SHA-256 over the dataset's files sorted by name, each as name + NUL + bytes
PINNED = (
    (SynthConfig("U", 500, seed=1, decoys=True),
     "506a58f3dfc756b260bed6b6c4cb0aa68ab8db5be1f3ea2a5d5388032b479485"),
    (SynthConfig("I", 300, seed=3),
     "b4db5c2c0b33c9ec0b83907b46a045f89263620293bd79aa34263b3c2d623cb5"),
    (SynthConfig("C", 300, seed=4),
     "5132f54766ae50c069454d93bd5b981eeb639cb119a3ba21eb71090463b1e699"),
)
IDS = [f"{c.relation_kind}-{c.n_instances}-s{c.seed}" for c, _ in PINNED]
# heads noise rejection rechecks: the summed lengths of _affected_heads' results
HEAD_CHECKS = [(cfg, n) for (cfg, _), n in zip(PINNED, (2895, 639, 628))]


@pytest.mark.parametrize("cfg, want", PINNED, ids=IDS)
def test_pinned_generation_digest(cfg, want, tmp_path):
    write_dataset(gen_dataset(cfg), tmp_path)
    digest = hashlib.sha256()
    for path in sorted(tmp_path.iterdir(), key=lambda p: p.name):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == want


@pytest.mark.parametrize("cfg, want", HEAD_CHECKS, ids=IDS)
def test_pinned_head_checks(cfg, want, monkeypatch):
    """Noise rejection's walks reach as many heads as when pinned: more is
    wasted work, and fewer could miss a head whose tails changed."""
    affected_heads = synthgen._affected_heads
    lengths = []

    def counted(*args):
        result = affected_heads(*args)
        lengths.append(len(result))
        return result

    monkeypatch.setattr(synthgen, "_affected_heads", counted)
    gen_dataset(cfg)
    assert sum(lengths) == want
