"""Byte-level golden output of generation plus ranking in all three modes."""

import hashlib

from kglogic import SynthConfig, gen_dataset, run_dataset, write_dataset

GOLDEN_CONFIGS = (
    SynthConfig("C", 40, seed=1),
    SynthConfig("I", 40, seed=2),
    SynthConfig("U", 40, seed=3, decoys=True),
    SynthConfig("U", 40, seed=4),
)
# SHA-256 over the configs in order: each one's dataset files by name, as
# name + NUL + bytes, then its era, ql and el reports
GOLDEN_DIGEST = "fea977b8e21e536177b90476c508e76aaeb1338ccc04f8debd8131ed5d36f58b"


def test_golden_generation_and_ranking(tmp_path):
    digest = hashlib.sha256()
    for i, cfg in enumerate(GOLDEN_CONFIGS):
        dataset = gen_dataset(cfg)
        out = tmp_path / str(i)
        write_dataset(dataset, out)
        for path in sorted(out.iterdir(), key=lambda p: p.name):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        for mode in ("era", "ql", "el"):
            digest.update(run_dataset(dataset, mode, 1).to_text().encode())
    assert digest.hexdigest() == GOLDEN_DIGEST
