"""An input file that is not UTF-8 text is a data error, not a traceback."""

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
