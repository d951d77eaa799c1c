"""Seeded CLI fuzz over argv and input-file bytes, for every command.

Each case mutates the argv of a working invocation, or the bytes of one file
it reads, and runs `main` in-process.  It must return 0, 1 or 2; an exit 2
must print exactly one `kglogic ...` line on stderr.  An exception escaping
`main` fails the test, as it would print a traceback from the console script.
"""

import random

from kglogic.cli import main

KG = "a\tR1\tb\nb\tR2\tc\nc\tR4\td\nb\tR3\te\ne\tR5\td\na\tR1\tf\nf\tR2\tc\n"
PREDS = "P1\ta\nP1\tc\n"
FORMULA = "(<R4>=1 <R2>=1 (<R1>=1 @h & @c) & !<R5>=2 P(P1))\n"

COMMANDS = [
    ["gen", "--relation", "U", "--instances", "3", "--seed", "1", "--out", "g"],
    ["gen", "--relation", "I", "--instances", "2", "--noise", "3",
     "--split", "0.5,0.25,0.25", "--out", "g"],
    ["compile", "--formula", "f.cml"],
    ["compile", "--formula", "f.cml", "--out", "f.net"],
    ["check", "--kg", "kg.tsv", "--preds", "p.tsv", "--formula", "f.cml",
     "--bind", "h=a,c=b", "--out", "o"],
    ["run", "--kg", "kg.tsv", "--preds", "p.tsv", "--formula", "f.cml",
     "--bind", "h=a,c=b", "--labeling", "none"],
    ["run", "--kg", "kg.tsv", "--formula", "f.cml", "--bind", "h=a,c=b",
     "--labeling", "el", "--degree", "0"],
    ["run", "--data", "d", "--labeling", "query"],
    ["run", "--data", "d", "--labeling", "el", "--degree", "2"],
    ["run", "--data", "d", "--labeling", "none", "--era-g1", "<R1>=1 top",
     "--era-comb", "not-left"],
    ["bisim", "--kg", "kg.tsv", "--preds", "p.tsv", "--labeling", "query",
     "--bind", "h=a", "--rounds", "3"],
    ["report", "--data", "d", "d", "--degree", "0"],
]
TOKENS = [
    "", "-1", "0", "2", "x", "--", "-", "--out", "--bind", "--data", "--kg",
    "--degree", "--rounds", "--labeling", "h=", "=a", "h=zz", "h=a,h=b",
    "c=f", "top", "U", "C", "Z", "0.5,0.5", "1,0,0", "\t", "é", "missing.tsv",
    "d/triples.tsv", "kg.tsv", "f.cml", "d", ".", "<R9>=1 top", "(top &",
]
FILE_BYTES = [b"\t", b"\n", b"\xff", b"\x00", b"(", b"=", b"-", b"9", b" ", b"@"]
# the files each command template reads
READS = {
    "gen": [], "compile": ["f.cml"],
    "check": ["kg.tsv", "p.tsv", "f.cml"], "bisim": ["kg.tsv", "p.tsv"],
}
DATA_FILES = ["d/config.txt", "d/triples.tsv", "d/ground.tsv",
              "d/targets_train.tsv", "d/targets_test.tsv"]


def _mutate_argv(rng: random.Random, argv: list[str]) -> list[str]:
    argv = list(argv)
    for _ in range(rng.randint(1, 2)):
        i = rng.randrange(len(argv))
        kind = rng.randrange(4)
        if kind == 0 and len(argv) > 1:
            del argv[i]
        elif kind == 1:
            argv.insert(i, argv[rng.randrange(len(argv))])
        elif kind == 2:
            argv[i] = rng.choice(TOKENS)
        else:
            argv.insert(i, rng.choice(TOKENS))
    return argv


def _mutate_bytes(rng: random.Random, data: bytes) -> bytes:
    i = rng.randint(0, len(data))
    kind = rng.randrange(5)
    if kind == 0:
        return data[:i] + data[i + 1:]
    if kind == 1:
        return data[:i] + rng.choice(FILE_BYTES) + data[i:]
    if kind == 2:
        return data[:i] + rng.choice(FILE_BYTES) + data[i + 1:]
    if kind == 3:
        return data[:i]
    lines = data.split(b"\n")
    j = rng.randrange(len(lines))
    return b"\n".join(lines[:j + 1] + lines[j:])


def _reads(argv: list[str]) -> list[str]:
    if "--data" in argv or argv[0] == "report":
        return DATA_FILES
    return READS.get(argv[0], ["kg.tsv", "p.tsv", "f.cml"])


def test_cli_fuzz(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "kg.tsv").write_text(KG)
    (tmp_path / "p.tsv").write_text(PREDS)
    (tmp_path / "f.cml").write_text(FORMULA)
    assert main(["gen", "--relation", "U", "--instances", "4", "--seed", "1",
                 "--decoys", "--out", "d"]) == 0
    originals = {
        path: (tmp_path / path).read_bytes()
        for path in ["kg.tsv", "p.tsv", "f.cml"] + DATA_FILES
    }
    for argv in COMMANDS:  # every template works unmutated
        assert main(argv) == 0, argv
    capsys.readouterr()

    rng = random.Random(2000)
    codes = set()
    for case in range(300):
        argv = rng.choice(COMMANDS)
        mutated = None
        if case % 2 and _reads(argv):
            mutated = rng.choice(_reads(argv))
            (tmp_path / mutated).write_bytes(
                _mutate_bytes(rng, originals[mutated])
            )
        else:
            argv = _mutate_argv(rng, argv)
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (argv, mutated)
        assert "Traceback" not in err, (argv, mutated)
        if code == 2:
            assert err.count("\n") == 1 and err.startswith("kglogic "), (
                argv, mutated, err
            )
        codes.add(code)
        if mutated:
            (tmp_path / mutated).write_bytes(originals[mutated])
    assert codes == {0, 1, 2}
