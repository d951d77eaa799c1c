"""A command loads only the modules it runs: importing the package loads no
submodule, and gen, check and bisim reach no engine, compiler, ranking or
dataclass code."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import kglogic

SRC = Path(__file__).resolve().parent.parent / "src"

COLD_START = f"""
import json, sys
sys.path.insert(0, {str(SRC)!r})

def loaded():
    return sorted(m for m in sys.modules if m == "kglogic" or m.startswith("kglogic."))

import kglogic
package_alone = loaded()
import kglogic.cli
cli_imports = loaded() + sorted({{"dataclasses"}} & set(sys.modules))
out, formula = sys.argv[1], sys.argv[2]
codes = [
    kglogic.cli.main(["gen", "--relation", "U", "--decoys", "--instances", "3",
                      "--seed", "1", "--out", out + "/data"]),
    kglogic.cli.main(["check", "--kg", out + "/data/triples.tsv", "--formula", formula,
                      "--bind", "h=u0_h", "--out", out + "/check"]),
    kglogic.cli.main(["bisim", "--kg", out + "/data/triples.tsv", "--labeling", "query",
                      "--bind", "h=u0_h", "--rounds", "3", "--out", out + "/bisim"]),
]
heavy = {{"dataclasses", "kglogic.evalrank", "kglogic.compiler", "kglogic.engine"}}
print(json.dumps([package_alone, cli_imports, codes, sorted(heavy & set(sys.modules))]))
"""


def test_gen_check_and_bisim_load_no_engine_ranking_or_dataclasses(tmp_path):
    formula = tmp_path / "u.cml"
    formula.write_text("(<R4>=1 <R2>=1 <R1>=1 @h & <R5>=1 <R3>=1 <R1>=1 @h)\n")
    proc = subprocess.run(  # -S: no site hook may preload a module checked for
        [sys.executable, "-S", "-c", COLD_START, str(tmp_path), str(formula)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    package_alone, cli_imports, codes, heavy = json.loads(proc.stdout.splitlines()[-1])
    assert package_alone == ["kglogic"]
    assert cli_imports == [
        "kglogic", "kglogic.checker", "kglogic.cli", "kglogic.errors",
        "kglogic.formulas", "kglogic.labeling", "kglogic.store", "kglogic.synthgen",
    ]
    assert codes == [0, 0, 0]
    assert heavy == []
    assert (tmp_path / "check" / "check.tsv").is_file()
    assert (tmp_path / "bisim" / "bisim.tsv").is_file()


# the public constants, which carry no __module__
CONSTANT_HOMES = {"INVERSE_SUFFIX": "store", "SUPPORT_RELATIONS": "synthgen",
                  "U_QUERY_ONLY_TEXT": "synthgen"}


def test_public_names_are_their_modules_objects():
    names = kglogic.__all__
    assert len(names) == len(set(names)) == 57
    for name in names:
        value = getattr(kglogic, name)
        home = CONSTANT_HOMES.get(name) or value.__module__.removeprefix("kglogic.")
        assert value is getattr(importlib.import_module(f"kglogic.{home}"), name), name
    assert set(names) <= set(dir(kglogic))
    namespace: dict = {}
    exec("from kglogic import *", namespace)
    assert all(namespace[name] is getattr(kglogic, name) for name in names)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        kglogic.no_such_name
    assert getattr(kglogic, "no_such_name", None) is None
