import pytest

from kglogic.cli import main


def _gen(tmp_path):
    data = tmp_path / "udata"
    assert main(
        ["gen", "--relation", "U", "--instances", "10", "--noise", "20",
         "--seed", "5", "--decoys", "--out", str(data)]
    ) == 0
    return data


def _assert_one_line_error(capsys, code, allowed=(2,)):
    err = capsys.readouterr().err
    assert code in allowed
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("kglogic ")


@pytest.mark.parametrize(
    "filename, line",
    [
        ("ground.tsv", "0\tu0_h"),
        ("ground.tsv", "first\tu0_h\thead"),
        ("targets_test.tsv", "u0_h\tU"),
    ],
)
def test_corrupt_dataset_file_is_data_error(tmp_path, capsys, filename, line):
    data = _gen(tmp_path)
    path = data / filename
    path.write_text(path.read_text() + line + "\n")
    capsys.readouterr()
    code = main(["run", "--data", str(data), "--labeling", "query"])
    _assert_one_line_error(capsys, code)


def test_corrupt_config_integer_is_data_error(tmp_path, capsys):
    data = _gen(tmp_path)
    path = data / "config.txt"
    path.write_text(path.read_text().replace("seed=5", "seed=five"))
    capsys.readouterr()
    code = main(["run", "--data", str(data), "--labeling", "query"])
    _assert_one_line_error(capsys, code)


def test_run_kg_without_formula(tmp_path, capsys):
    kg = tmp_path / "k.tsv"
    kg.write_text("a\tR1\tb\n")
    code = main(["run", "--kg", str(kg), "--bind", "h=a"])
    _assert_one_line_error(capsys, code, allowed=(1, 2))


@pytest.mark.parametrize("split", ["a,b,c", "nan,0.5,0.5"])
def test_gen_split_not_fractions(tmp_path, capsys, split):
    code = main(
        ["gen", "--relation", "C", "--split", split, "--out", str(tmp_path / "c")]
    )
    _assert_one_line_error(capsys, code, allowed=(1, 2))


@pytest.mark.parametrize(
    "flags",
    [["--labeling", "none", "--era-g1", "@x"], ["--labeling", "el", "--degree", "-3"]],
    ids=["era-constant", "el-negative-degree"],
)
def test_invalid_run_fails_without_test_queries(tmp_path, capsys, flags):
    """An invalid run exits 2 with the same one-line message whether or not
    the test split holds a query."""
    errors = []
    for split in ("0.4,0.2,0.4", "0.5,0.5,0"):
        data = tmp_path / split
        assert main(
            ["gen", "--relation", "C", "--instances", "3", "--split", split,
             "--out", str(data)]
        ) == 0
        capsys.readouterr()
        code = main(["run", "--data", str(data), *flags])
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1, (split, err)
        errors.append(err)
    assert (data / "targets_test.tsv").read_text() == ""
    assert errors[0] == errors[1]


@pytest.mark.parametrize("command", ["check", "run", "bisim"])
@pytest.mark.parametrize("bind", ["h=a,h=b", "h=a,c=b,h=a"])
def test_constant_bound_twice_is_data_error(tmp_path, capsys, command, bind):
    kg = tmp_path / "k.tsv"
    kg.write_text("a\tR1\tb\n")
    formula = tmp_path / "f.txt"
    formula.write_text("<R1>=1 @h\n")
    extra = ["--rounds", "1"] if command == "bisim" else ["--formula", str(formula)]
    code = main([command, "--kg", str(kg), "--bind", bind, *extra])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"kglogic {command}: error: constant 'h' is bound more than once\n"


def _kg_and_formula(tmp_path):
    kg = tmp_path / "k.tsv"
    kg.write_text("a\tR1\tb\n")
    formula = tmp_path / "f.txt"
    formula.write_text("<R1>=1 @h\n")
    return str(kg), str(formula)


def _assert_error(capsys, code, command, message):
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"kglogic {command}: error: {message}\n"


@pytest.mark.parametrize("piece", ["h", "=a", "h=", "h=a,"])
def test_malformed_bind_piece_is_data_error(tmp_path, capsys, piece):
    kg, formula = _kg_and_formula(tmp_path)
    code = main(["check", "--kg", kg, "--formula", formula, "--bind", piece])
    bad = piece.split(",")[-1]
    _assert_error(
        capsys, code, "check", f"malformed binding {bad!r}, expected name=entity"
    )


@pytest.mark.parametrize("command", ["run", "bisim"])
@pytest.mark.parametrize("bind", [[], ["--bind", "c=a"]])
def test_query_labeling_without_h_is_data_error(tmp_path, capsys, command, bind):
    kg, formula = _kg_and_formula(tmp_path)
    extra = ["--formula", formula] if command == "run" else []
    code = main([command, "--kg", kg, "--labeling", "query", *bind, *extra])
    _assert_error(capsys, code, command, "labeling 'query' needs --bind h=<entity>")


@pytest.mark.parametrize("sources", ["both", "neither"])
def test_run_needs_exactly_one_source(tmp_path, capsys, sources):
    kg, formula = _kg_and_formula(tmp_path)
    flags = ["--formula", formula, "--bind", "h=a"]
    if sources == "both":
        data = _gen(tmp_path)
        capsys.readouterr()
        flags += ["--data", str(data), "--kg", kg]
    code = main(["run", *flags])
    _assert_error(capsys, code, "run", "run needs exactly one of --data or --kg")


def test_bisim_negative_rounds_is_data_error(tmp_path, capsys):
    kg, _ = _kg_and_formula(tmp_path)
    code = main(["bisim", "--kg", kg, "--rounds", "-1"])
    _assert_error(capsys, code, "bisim", "rounds must be >= 0, got -1")


def test_run_on_an_empty_test_split_reports_zero_queries(tmp_path, capsys):
    data = tmp_path / "empty"
    assert main(["gen", "--relation", "C", "--instances", "0", "--out", str(data)]) == 0
    capsys.readouterr()
    assert main(["run", "--data", str(data)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    metrics = [line for line in captured.out.splitlines() if line.startswith("metric")]
    assert metrics == [
        "metric\thit@1\t0.0", "metric\thit@10\t0.0", "metric\tmrr\t0.0",
        "metric\tqueries\t0",
    ]
