"""The streamed text paths: TSV rows go straight into the store, and the CLI
writes its output in chunks.  Errors, their order and the output bytes are
those of reading and writing each text whole."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from kglogic import SynthConfig, gen_dataset, load_store
from kglogic.cli import _write_output, main
from kglogic.errors import TripleFileError

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize(
    "triples, preds, message",
    [
        # the first malformed line wins
        ("a\tR1\tb\nbad\na\tR1\nc\tR1\td", None,
         "triples line 2: expected 3 tab-separated fields, got 1"),
        ("a\tR1\tb\n\na\tR1\tb\tc\nbad", None,
         "triples line 3: expected 3 tab-separated fields, got 4"),
        # triples errors come before predicates errors
        ("a\tR1\tb\nbad", "p\ta\nbad",
         "triples line 2: expected 3 tab-separated fields, got 1"),
        ("a\tR1\tb\nbad", "p\tzz",
         "triples line 2: expected 3 tab-separated fields, got 1"),
        # a malformed predicates line comes before an unknown entity on an
        # earlier one
        ("a\tR1\tb", "p\tzz\np\ta\tb",
         "predicates line 2: expected 2 tab-separated fields, got 3"),
        ("a\tR1\tb", "p\ta\np\tzz\nq\tb",
         "predicate 'p' references unknown entity 'zz'"),
    ],
)
def test_tsv_errors_keep_their_order(triples, preds, message):
    with pytest.raises(TripleFileError) as info:
        load_store(triples, preds)
    assert str(info.value) == message


@pytest.mark.parametrize("flag", ["--kg", "--preds"])
def test_non_utf8_kg_names_the_byte_offset(tmp_path, capsys, flag):
    kg = tmp_path / "kg.tsv"
    kg.write_text("a\tR1\tb\n")
    bad = tmp_path / "bad.tsv"
    bad.write_bytes(b"a\tR1\tb\nc\xff\n")
    args = {"--kg": str(kg), "--preds": None, flag: str(bad)}
    argv = ["bisim"] + [x for k, v in args.items() if v for x in (k, v)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"kglogic bisim: error: {bad}: not UTF-8 text (byte 0xff at offset 8)\n"
    )


@pytest.mark.parametrize("name", ["targets_test.tsv", "ground.tsv"])
def test_dataset_rows_keep_their_line_numbers(tmp_path, capsys, name):
    data = tmp_path / "cdata"
    assert main(["gen", "--relation", "C", "--instances", "10", "--seed", "1",
                 "--out", str(data)]) == 0
    path = data / name
    lines = path.read_text().split("\n")
    lines.insert(1, "bad")
    lines.insert(3, "worse")
    path.write_text("\n".join(lines))
    capsys.readouterr()
    assert main(["run", "--data", str(data)]) == 2
    assert capsys.readouterr().err == (
        f"kglogic run: error: {name} line 2: expected 3 tab-separated fields, "
        "got 1\n"
    )


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("streamed")
    data = base / "udata"
    assert main(["gen", "--relation", "U", "--instances", "8", "--seed", "4",
                 "--decoys", "--out", str(data)]) == 0
    (base / "empty.tsv").write_text("")
    (base / "rule.cml").write_text("<R1>=1 @h\n")
    (base / "top.cml").write_text("top\n")
    return base


def _commands(base):
    kg, empty = base / "udata" / "triples.tsv", base / "empty.tsv"
    rule, top = base / "rule.cml", base / "top.cml"
    return {
        "bisim": (["bisim", "--kg", str(kg), "--labeling", "query", "--bind", "h=u0_h",
                   "--rounds", "4"], "bisim.tsv"),
        "bisim-empty": (["bisim", "--kg", str(empty)], "bisim.tsv"),
        "check": (["check", "--kg", str(kg), "--formula", str(rule),
                   "--bind", "h=u0_h"], "check.tsv"),
        "check-empty": (["check", "--kg", str(empty), "--formula", str(top)],
                        "check.tsv"),
        "run-kg": (["run", "--kg", str(kg), "--formula", str(rule), "--bind", "h=u0_h"],
                   "run.tsv"),
        "run-kg-empty": (["run", "--kg", str(empty), "--formula", str(top),
                          "--labeling", "none"], "run.tsv"),
        "run-data": (["run", "--data", str(base / "udata"), "--labeling", "el"],
                     "report.txt"),
        "report": (["report", "--data", str(base / "udata")], "report.txt"),
    }


@pytest.mark.parametrize(
    "command",
    ["bisim", "bisim-empty", "check", "check-empty", "run-kg", "run-kg-empty",
     "run-data", "report"],
)
def test_stdout_equals_out_file(inputs, tmp_path, capsys, command):
    argv, filename = _commands(inputs)[command]
    capsys.readouterr()
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    outdir = tmp_path / "out"
    assert main(argv + ["--out", str(outdir)]) == 0
    assert capsys.readouterr().out == ""
    assert (outdir / filename).read_bytes() == stdout.encode()
    assert stdout.startswith("# ") and stdout.endswith("\n")


def test_empty_store_bisim_is_the_header_alone(inputs, capsys):
    argv, _ = _commands(inputs)["bisim-empty"]
    capsys.readouterr()
    assert main(argv) == 0
    assert all(line.startswith("# ") for line in capsys.readouterr().out.splitlines())


def test_failing_bisim_leaves_no_output_file(inputs, tmp_path, capsys):
    argv, filename = _commands(inputs)["bisim"]
    outdir = tmp_path / "out"
    argv = [a if a != "h=u0_h" else "h=nobody" for a in argv]
    assert main(argv + ["--out", str(outdir)]) == 2
    assert "unknown entity 'nobody'" in capsys.readouterr().err
    assert not outdir.exists()


def test_a_write_failing_part_way_leaves_no_output_file(tmp_path):
    def chunks():
        yield "# header\n"
        raise UnicodeEncodeError("ascii", "\xe9", 0, 1, "ordinal not in range(128)")

    outdir = tmp_path / "out"
    with pytest.raises(UnicodeEncodeError):
        _write_output(chunks(), str(outdir), "bisim.tsv")
    assert outdir.is_dir() and not (outdir / "bisim.tsv").exists()


def test_unencodable_output_is_a_data_error(tmp_path):
    kg = tmp_path / "k.tsv"
    kg.write_bytes(b"a\tR\tb\xc3\xa9\n")
    env = dict(os.environ, PYTHONIOENCODING="ascii", PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "kglogic", "bisim", "--kg", str(kg), "--rounds", "1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    # the header fits, but the names are checked before it is printed
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("kglogic bisim: error: 'ascii' codec can't encode")


def test_load_store_peak_stays_within_twice_what_it_keeps():
    # a list of every row, built before interning, put the peak at 2.6x
    store = gen_dataset(SynthConfig("U", 2000, seed=1, decoys=True)).store
    text = store.to_triples_text()
    tracemalloc.start()
    try:
        store = load_store(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(store.triples) > 60_000
    assert peak <= 2 * kept, (peak, kept)
