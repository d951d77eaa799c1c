import gc

import pytest

from kglogic import cli
from kglogic.cli import main

U_STRUCTURE = "h\tR1\tc\nc\tR2\tz2\nz2\tR4\tt\nc\tR3\tz3\nz3\tR5\tt\n"
UPRIME = "(<R4>=1 <R2>=1 (<R1>=1 @h & @c) & <R5>=1 <R3>=1 (<R1>=1 @h & @c))\n"


def test_compile_chain(tmp_path, capsys):
    formula = tmp_path / "c.cml"
    formula.write_text("<R3>=1 <R2>=1 <R1>=1 @h\n")
    out = tmp_path / "c.net"
    code = main(["compile", "--formula", str(formula), "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "dim\t4" in text
    assert "Case 3" in capsys.readouterr().out


def test_check_fork_join(tmp_path, capsys):
    kg = tmp_path / "u.tsv"
    kg.write_text(U_STRUCTURE)
    formula = tmp_path / "uprime.cml"
    formula.write_text(UPRIME)
    code = main(
        ["check", "--kg", str(kg), "--formula", str(formula), "--bind", "h=h,c=c"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "t\t1" in out.split("\n")
    assert all(
        line.endswith("\t0")
        for line in out.split("\n")
        if line and not line.startswith("#") and not line.startswith("t\t")
    )


def test_run_engine_matches_check(tmp_path, capsys):
    kg = tmp_path / "u.tsv"
    kg.write_text(U_STRUCTURE)
    formula = tmp_path / "uprime.cml"
    formula.write_text(UPRIME)
    args = ["--kg", str(kg), "--formula", str(formula), "--bind", "h=h,c=c"]
    assert main(["check"] + args) == 0
    check_lines = [
        line
        for line in capsys.readouterr().out.split("\n")
        if line and not line.startswith("#")
    ]
    assert main(["run"] + args + ["--labeling", "none"]) == 0
    run_lines = [
        line
        for line in capsys.readouterr().out.split("\n")
        if line and not line.startswith("#")
    ]
    assert check_lines == run_lines


def test_missing_kg_is_data_error(tmp_path, capsys):
    formula = tmp_path / "f.cml"
    formula.write_text("top\n")
    code = main(["run", "--kg", str(tmp_path / "missing.tsv"),
                 "--formula", str(formula), "--labeling", "none"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert main(["gen", "--bogus"]) == 1


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1


def test_malformed_formula_is_data_error(tmp_path, capsys):
    kg = tmp_path / "k.tsv"
    kg.write_text("a\tR1\tb\n")
    formula = tmp_path / "f.cml"
    formula.write_text("(P(a) &\n")
    code = main(["check", "--kg", str(kg), "--formula", str(formula)])
    assert code == 2


def test_gen_run_bisim_report_flow(tmp_path, capsys):
    data = tmp_path / "udata"
    code = main(
        ["gen", "--relation", "U", "--instances", "10", "--noise", "20",
         "--seed", "5", "--decoys", "--out", str(data)]
    )
    assert code == 0
    capsys.readouterr()
    for name in ("triples.tsv", "targets_test.tsv", "ground.tsv", "config.txt"):
        assert (data / name).exists()

    code = main(["run", "--data", str(data), "--labeling", "el", "--degree", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "metric\thit@1\t1.0" in out

    kg = tmp_path / "udata" / "triples.tsv"
    code = main(
        ["bisim", "--kg", str(kg), "--labeling", "query", "--bind", "h=u0_h",
         "--rounds", "3"]
    )
    assert code == 0
    lines = [
        line
        for line in capsys.readouterr().out.split("\n")
        if line and not line.startswith("#")
    ]
    assert all(len(line.split("\t")) == 3 for line in lines)

    code = main(["report", "--data", str(data)])
    assert code == 0
    out = capsys.readouterr().out
    assert "relation\tera\tql\tel" in out
    row = [line for line in out.split("\n") if line.startswith("U\t")][0]
    assert row.split("\t")[3] == "1.0"  # el column


def test_outputs_to_directory(tmp_path):
    data = tmp_path / "cdata"
    assert main(
        ["gen", "--relation", "C", "--instances", "5", "--noise", "10",
         "--seed", "1", "--out", str(data)]
    ) == 0
    outdir = tmp_path / "results"
    assert main(
        ["run", "--data", str(data), "--labeling", "query", "--out", str(outdir)]
    ) == 0
    report = (outdir / "report.txt").read_text()
    assert "metric\thit@1\t1.0" in report
    assert report.startswith("#")


def test_bisim_labeling_none(tmp_path, capsys):
    kg = tmp_path / "k.tsv"
    kg.write_text("a\tR1\tb\n")
    assert main(["bisim", "--kg", str(kg), "--rounds", "2"]) == 0
    out = capsys.readouterr().out
    assert "0\ta\t0" in out


def test_bisim_empty_kg_prints_header_only(tmp_path, capsys):
    kg = tmp_path / "empty.tsv"
    kg.write_text("")
    argv = ["bisim", "--kg", str(kg), "--labeling", "none", "--rounds", "2"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n")
    assert all(line.startswith("# ") for line in out[:-1].split("\n"))


def test_report_empty_test_split_prints_na(tmp_path, capsys):
    empty, full = tmp_path / "empty", tmp_path / "full"
    assert main(
        ["gen", "--relation", "C", "--instances", "2", "--split", "1,0,0",
         "--out", str(empty)]
    ) == 0
    assert main(
        ["gen", "--relation", "C", "--instances", "5", "--seed", "1",
         "--out", str(full)]
    ) == 0
    capsys.readouterr()
    assert main(["report", "--data", str(empty), str(full)]) == 0
    rows = [
        line.split("\t")
        for line in capsys.readouterr().out.split("\n")
        if line.startswith("C\t")
    ]
    # a missing hit rate is not a zero one; a non-empty split keeps its numbers
    assert rows[0] == ["C", "n/a", "n/a", "n/a"]
    assert all(cell != "n/a" and 0.0 <= float(cell) <= 1.0 for cell in rows[1][1:])


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize(
    "argv, code",
    [
        (["gen", "--relation", "C", "--instances", "3", "--out", "{tmp}/out"], 0),
        (["gen", "--bogus"], 1),
        (["gen", "--relation", "C", "--instances", "1", "--noise", "100",
          "--out", "{tmp}/out"], 2),
    ],
    ids=["ok", "usage", "data"],
)
def test_main_pauses_the_collector_and_restores_it(
    tmp_path, capsys, monkeypatch, argv, code, enabled
):
    """The cyclic collector is off while a command runs and is back in the
    caller's state after it, whatever the exit code."""
    during = []
    gen_dataset = cli.gen_dataset

    def spied(cfg):
        during.append(gc.isenabled())
        return gen_dataset(cfg)

    monkeypatch.setattr(cli, "gen_dataset", spied)
    (gc.enable if enabled else gc.disable)()
    try:
        assert main([arg.format(tmp=tmp_path) for arg in argv]) == code
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert during == ([] if code == 1 else [False])


def test_gen_leaves_no_garbage_that_grows_with_the_input(tmp_path, capsys):
    """With the collector paused for the command, what `gc.collect()` finds
    unreachable afterwards must not grow with the data."""
    found = []
    for n in (20, 200):
        gc.collect()
        gc.disable()  # so that no automatic pass runs before the count
        try:
            argv = ["gen", "--relation", "U", "--decoys", "--instances", str(n),
                    "--out", str(tmp_path / str(n))]
            assert main(argv) == 0
            found.append(gc.collect())
        finally:
            gc.enable()
    assert found[1] <= found[0], found


def test_commands_leave_no_garbage_once_the_parser_is_built(tmp_path, capsys):
    """After one command has built the argument parser, gen, run --data and
    bisim each leave nothing for `gc.collect()` to find."""
    data = tmp_path / "data"
    commands = {
        "gen": ["gen", "--relation", "U", "--decoys", "--instances", "20",
                "--out", str(data)],
        "run": ["run", "--data", str(data), "--labeling", "el"],
        "bisim": ["bisim", "--kg", str(data / "triples.tsv"), "--rounds", "3"],
    }
    assert main(["gen", "--relation", "C", "--instances", "2",
                 "--out", str(tmp_path / "warm-up")]) == 0
    found = {}
    for name, argv in commands.items():
        gc.collect()
        gc.disable()  # so that no automatic pass runs before the count
        try:
            assert main(argv) == 0
            found[name] = gc.collect()
        finally:
            gc.enable()
    assert found == {"gen": 0, "run": 0, "bisim": 0}
