"""Full stdout of `check` and `run --kg`, header included, pinned by digest.

The digests were recorded before the two commands shared their per-entity
bit table, so any change to the header, the entity order or a bit shows.
Files are passed by relative name so that the echoed header does not depend
on the temporary directory.
"""

import hashlib

import pytest

from kglogic.cli import main

KG = (
    "h\tR1\tc\nc\tR2\tz2\nz2\tR4\tt\nc\tR3\tz3\nz3\tR5\tt\n"
    "h\tR1\td\nd\tR2\tz2\nd\tR3\tz3\nu\tR4\tt\nw\tR4\tt\nx\tR1\th\n"
)
PREDS = "P1\th\nP1\tz2\nP2\tt\nP2\tu\n"
FORMULAS = {
    "uprime.cml": "(<R4>=1 <R2>=1 (<R1>=1 @h & @c) & <R5>=1 <R3>=1 (<R1>=1 @h & @c))\n",
    "count.cml": "((<R4>=3 top | <R2>=2 top) | !<R1>=1 P(P1))\n",
    "chain.cml": "<R2>=1 (<R1>=1 @h & !P(P1))\n",
}

CASES = [
    (["check", "--formula", "uprime.cml", "--bind", "h=h,c=c"],
     "08836f058d6ac7dff575d37fcdc9b6efb2bae159ff03dd1d4e4bbaa9ebe6eb8a"),
    (["check", "--formula", "count.cml"],
     "b18d54aa76c9b3e8898c0995b41135db5dfea7400c4b3278d3b8effa8ba0cfec"),
    (["check", "--formula", "chain.cml", "--bind", "h=h"],
     "21dc8e35f0828288abf5784d120857b27abefde1e38bf387ad66fe108ab72ead"),
    (["run", "--formula", "uprime.cml", "--bind", "h=h,c=c", "--labeling", "none"],
     "644c59608134a3a7eedf3c426de0b04f1ed3fcdc67564c1875adf5fef71ba03d"),
    (["run", "--formula", "count.cml", "--labeling", "none"],
     "f2f7a07a9dea44348a2e6c9481a0c382736be0c0caa4cfeffa7e400b92f6c589"),
    (["run", "--formula", "chain.cml", "--bind", "h=h"],
     "b0828b31766d3b7ffdf45b1f6dca1505d123b4e0f96d790ecd84d6e168a7aa9f"),
    (["run", "--formula", "chain.cml", "--bind", "h=h", "--labeling", "el", "--degree", "1"],
     "f12066638a65bd1425060cd4abae6f88c741f8023282d5864c446aa0847dfe60"),
    (["run", "--formula", "count.cml", "--bind", "h=x", "--labeling", "el", "--degree", "0"],
     "18f36c45a9fbf8a29334bfb9848df4a7b845c617465697cf4a04da0e3201da49"),
]


def _stdout_digest(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "kg.tsv").write_text(KG)
    (tmp_path / "preds.tsv").write_text(PREDS)
    for name, text in FORMULAS.items():
        (tmp_path / name).write_text(text)
    assert main(argv[:1] + ["--kg", "kg.tsv", "--preds", "preds.tsv"] + argv[1:]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return hashlib.sha256(captured.out.encode()).hexdigest()


@pytest.mark.parametrize("argv, digest", CASES, ids=["-".join(a) for a, _ in CASES])
def test_stdout_matches_recorded_digest(tmp_path, monkeypatch, capsys, argv, digest):
    assert _stdout_digest(tmp_path, monkeypatch, capsys, argv) == digest
