"""An input file that is not UTF-8 text is a data error, not a traceback."""

import pytest

from kglogic.cli import main

BAD = b"\xff"


def _assert_one_line_data_error(capsys, code):
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("kglogic ")


def test_non_utf8_kg_triples(tmp_path, capsys):
    kg = tmp_path / "kg.tsv"
    kg.write_bytes(b"a\tR1\tb" + BAD + b"\n")
    formula = tmp_path / "f.txt"
    formula.write_text("<R1>=1 top\n")
    code = main(["check", "--kg", str(kg), "--formula", str(formula)])
    _assert_one_line_data_error(capsys, code)


def test_non_utf8_formula_file(tmp_path, capsys):
    formula = tmp_path / "f.txt"
    formula.write_bytes(b"<R1>=1 " + BAD + b"top\n")
    code = main(["compile", "--formula", str(formula)])
    _assert_one_line_data_error(capsys, code)


def test_non_utf8_dataset_config(tmp_path, capsys):
    data = tmp_path / "cdata"
    assert main(["gen", "--relation", "C", "--instances", "5", "--seed", "1",
                 "--out", str(data)]) == 0
    config = data / "config.txt"
    config.write_bytes(config.read_bytes() + b"note=" + BAD + b"\n")
    capsys.readouterr()
    code = main(["run", "--data", str(data), "--labeling", "query"])
    _assert_one_line_data_error(capsys, code)



def _assert_error_names(capsys, code, path):
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("kglogic ")
    assert str(path) in err


def test_kg_error_names_the_file(tmp_path, capsys):
    kg = tmp_path / "graph.tsv"
    kg.write_bytes(b"a\tR1\tb\n" + BAD + b"\tR1\tb\n")
    code = main(["bisim", "--kg", str(kg)])
    _assert_error_names(capsys, code, kg)


def test_formula_error_names_the_file(tmp_path, capsys):
    kg = tmp_path / "graph.tsv"
    kg.write_text("a\tR1\tb\n")
    formula = tmp_path / "rule.txt"
    formula.write_bytes(b"<R1>=1 " + BAD + b"top\n")
    code = main(["run", "--kg", str(kg), "--formula", str(formula)])
    _assert_error_names(capsys, code, formula)


@pytest.mark.parametrize("name", ["config.txt", "ground.tsv"])
def test_dataset_error_names_the_file(tmp_path, capsys, name):
    data = tmp_path / "idata"
    assert main(["gen", "--relation", "I", "--instances", "5", "--seed", "2",
                 "--out", str(data)]) == 0
    capsys.readouterr()
    path = data / name
    path.write_bytes(BAD + path.read_bytes())
    code = main(["run", "--data", str(data), "--labeling", "el"])
    _assert_error_names(capsys, code, path)
