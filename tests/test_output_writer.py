"""Every file a command writes goes through one writer: UTF-8 whatever the
locale, and a failing command leaves no output file behind."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from kglogic.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
ASCII_LOCALE = {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}
UTF8_MODE = {"PYTHONUTF8": "1"}
# any text file opened without an explicit encoding kills the process
NO_LOCALE_ENCODING = ["-X", "warn_default_encoding", "-W", "error::EncodingWarning"]


def _kglogic(argv, env_extra=(), flags=(), cwd=None):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    env.update(env_extra, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *flags, "-m", "kglogic", *argv],
        capture_output=True, env=env, cwd=cwd, timeout=120,
    )


def test_gen_into_an_obstacle_leaves_no_dataset_file(tmp_path, capsys):
    out = tmp_path / "d"
    (out / "ground.tsv").mkdir(parents=True)
    code = main(["gen", "--relation", "C", "--instances", "3", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and "Is a directory" in err
    # the files written before the obstacle are gone; the obstacle is not
    assert [p.name for p in out.iterdir()] == ["ground.tsv"]
    assert (out / "ground.tsv").is_dir()


def test_compile_report_stdout_cannot_encode_leaves_no_net_file(tmp_path):
    formula = tmp_path / "f.cml"
    formula.write_bytes("<R1>=1 P(é)\n".encode())
    net = tmp_path / "f.net"
    proc = _kglogic(["compile", "--formula", str(formula), "--out", str(net)],
                    {"PYTHONIOENCODING": "ascii"})
    err = proc.stderr.decode("ascii")
    assert proc.returncode == 2
    assert "Traceback" not in err and err.count("\n") == 1
    assert err.startswith("kglogic compile: error: 'ascii' codec can't encode")
    assert not net.exists()
    # a missing parent directory is still a data error
    missing = tmp_path / "nowhere" / "f.net"
    assert main(["compile", "--formula", str(formula), "--out", str(missing)]) == 2
    assert not missing.parent.exists()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("writer")
    (base / "k.tsv").write_bytes("a\tR1\tbé\nbé\tR2\tc\nc\tR1\ta\n".encode())
    (base / "f.cml").write_bytes(b"<R1>=1 @h\n")
    assert main(["gen", "--relation", "U", "--instances", "6", "--seed", "2",
                 "--decoys", "--out", str(base / "data")]) == 0
    return base


def _argv(base, command):
    kg, formula = str(base / "k.tsv"), str(base / "f.cml")
    return {
        "gen": ["gen", "--relation", "I", "--instances", "4", "--seed", "3"],
        "compile": ["compile", "--formula", formula],
        "check": ["check", "--kg", kg, "--formula", formula, "--bind", "h=a"],
        "run-kg": ["run", "--kg", kg, "--formula", formula, "--bind", "h=a"],
        "run-data": ["run", "--data", str(base / "data"), "--labeling", "el"],
        "bisim": ["bisim", "--kg", kg, "--labeling", "query", "--bind", "h=a"],
        "report": ["report", "--data", str(base / "data")],
    }[command]


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_output_files_do_not_depend_on_the_locale(inputs, tmp_path):
    # inputs and outputs hold a non-ASCII entity; under an ASCII locale the
    # output files must still be written, as the same UTF-8 bytes
    for command in ["gen", "check", "run-kg", "bisim"]:
        trees = []
        for name, env in [("ascii", ASCII_LOCALE), ("utf8", UTF8_MODE)]:
            out = tmp_path / command / name
            proc = _kglogic(_argv(inputs, command) + ["--out", str(out)], env)
            assert proc.returncode == 0, (command, name, proc.stderr)
            trees.append(_tree(out))
        assert trees[0] == trees[1] and trees[0], command


@pytest.mark.parametrize(
    "command", ["gen", "compile", "check", "run-kg", "run-data", "bisim", "report"]
)
def test_no_command_uses_the_locale_encoding(inputs, tmp_path, command):
    out = "f.net" if command == "compile" else "out"
    proc = _kglogic(_argv(inputs, command) + ["--out", out], cwd=tmp_path,
                    flags=NO_LOCALE_ENCODING)
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
    assert (tmp_path / out).exists()
