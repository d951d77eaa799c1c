"""The dataset directory's fault matrix: each single-file fault injected into
a generated dataset ends `run --data` (in each labeling mode) and `report`
in exit 2 with one `kglogic ...` stderr line, or, for the faults in
TOLERATED, in exit 0 with the bytes the intact dataset gives.  No case may
raise out of `main`."""

import pytest

from kglogic.cli import main

FILES = ("triples.tsv", "targets_train.tsv", "targets_valid.tsv",
         "targets_test.tsv", "ground.tsv", "config.txt")
# a duplicated triple line collapses to the triple it repeats
TOLERATED = {("triples.tsv", "duplicated row")}


def _unknown_entity(name):
    if name == "config.txt":  # a key gen never writes
        return lambda text: "nobody=1\n" + text
    # the first row's head, or in ground.tsv the second row's entity, which
    # no target names
    row, field = (1, 1) if name == "ground.tsv" else (0, 0)

    def fault(text):
        lines = text.split("\n")
        fields = lines[row].split("\t")
        fields[field] = "nobody"
        lines[row] = "\t".join(fields)
        return "\n".join(lines)
    return fault


# (file, fault, change): change maps the file's text to the faulted text, and
# None removes the file
FAULTS = [
    (name, fault, change)
    for name in FILES
    for fault, change in [
        ("missing", None),
        ("empty", lambda text: ""),
        ("extra field", lambda text: text.replace("\n", "\tx\n", 1)),
        ("duplicated row", lambda text: text.split("\n", 1)[0] + "\n" + text),
        ("unknown entity", _unknown_entity(name)),
    ]
] + [
    ("ground.tsv", "unknown role", lambda text: text.replace("\tfork\n", "\tfoo\n", 1)),
    ("ground.tsv", "deleted head row", lambda text: text.split("\n", 1)[1]),
    ("config.txt", "decoys=0", lambda text: text.replace("decoys=1", "decoys=0")),
    ("config.txt", "decoys=2", lambda text: text.replace("decoys=1", "decoys=2")),
    ("config.txt", "empty key", lambda text: text + "=5\n"),
]
MODES = ("none", "query", "el")
COMMANDS = [["run", "--data", "d", "--labeling", mode] for mode in MODES]
COMMANDS.append(["report", "--data", "d"])


@pytest.fixture(scope="module")
def intact(tmp_path_factory):
    """U-40 with decoys in `d`, and its files' texts."""
    root = tmp_path_factory.mktemp("faults")
    assert main(["gen", "--relation", "U", "--instances", "40", "--seed", "3",
                 "--decoys", "--out", str(root / "d")]) == 0
    return root, {name: (root / "d" / name).read_text() for name in FILES}


def _outputs(capsys):
    capsys.readouterr()
    results = []
    for argv in COMMANDS:
        code = main(argv)
        results.append((code, *capsys.readouterr()))
    return results


@pytest.mark.parametrize("name, fault, change", FAULTS,
                         ids=[f"{name}-{fault}" for name, fault, _ in FAULTS])
def test_fault_fails_in_one_line_or_changes_nothing(
    intact, monkeypatch, capsys, name, fault, change
):
    root, texts = intact
    monkeypatch.chdir(root)  # relative paths: the outputs echo --data
    for each, text in texts.items():
        (root / "d" / each).write_text(text)
    expected = _outputs(capsys)
    assert all(code == 0 for code, _, _ in expected)
    path = root / "d" / name
    if change is None:
        path.unlink()
    else:
        assert change(texts[name]) != texts[name]
        path.write_text(change(texts[name]))
    for argv, got, (_, want, _) in zip(COMMANDS, _outputs(capsys), expected):
        code, out, err = got
        if (name, fault) in TOLERATED:
            assert (code, out, err) == (0, want, ""), argv
        else:
            assert code == 2 and out == "", (argv, got)
            assert err.count("\n") == 1 and err.startswith(f"kglogic {argv[0]}: "), (
                argv, err
            )
