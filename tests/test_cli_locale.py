"""The CLI's text boundaries with the locale: argv under an ASCII locale, and
the `wrote` line of `gen` when stdout cannot encode it."""

import os
import subprocess
import sys
from pathlib import Path

from kglogic.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
ASCII_LOCALE = {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}


def _kglogic(argv, env_extra):
    """Run `python -m kglogic` on argv, whose items may be str or bytes."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    env.update(env_extra, PYTHONPATH=str(SRC))
    return subprocess.run(
        [os.fsencode(sys.executable), b"-m", b"kglogic", *map(os.fsencode, argv)],
        capture_output=True, env=env, timeout=120,
    )


def test_gen_checks_its_wrote_line_before_writing(tmp_path):
    out = os.fsencode(tmp_path) + "/dé".encode()
    # strict whatever the locale: a C locale's stdout would take the escapes
    proc = _kglogic([b"gen", b"--relation", b"C", b"--instances", b"3", b"--out", out],
                    {"PYTHONIOENCODING": "ascii:strict"})
    err = proc.stderr.decode("ascii")
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert "Traceback" not in err and err.count("\n") == 1
    assert err.startswith("kglogic gen: error: 'ascii' codec can't encode")
    assert not os.path.exists(out)


def test_a_non_ascii_binding_is_read_as_utf8_under_an_ascii_locale(tmp_path):
    kg, formula = tmp_path / "k.tsv", tmp_path / "f.cml"
    kg.write_bytes("a\tR1\tbé\nbé\tR2\tc\n".encode())
    formula.write_bytes(b"<R2>=1 @h\n")
    argv = [b"check", b"--kg", os.fsencode(kg), b"--formula", os.fsencode(formula),
            b"--bind", "h=bé".encode()]
    proc = _kglogic(argv + [b"--out", os.fsencode(tmp_path / "ascii")], ASCII_LOCALE)
    assert proc.returncode == 0, proc.stderr
    # the same bytes as an in-process run, whose argument is already text
    assert main(["check", "--kg", str(kg), "--formula", str(formula),
                 "--bind", "h=bé", "--out", str(tmp_path / "utf8")]) == 0
    got = (tmp_path / "ascii" / "check.tsv").read_bytes()
    assert got == (tmp_path / "utf8" / "check.tsv").read_bytes()
    assert "# bind=h=bé\n".encode() in got and got.endswith(b"c\t1\n")
