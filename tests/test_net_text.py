import hashlib
import random

import pytest

from kglogic import (
    EvaluationError,
    FormulaArena,
    FormulaSyntaxError,
    canonical_formula,
    compile_formula,
    explain,
    net_from_text,
    net_to_text,
    parse,
)
from helpers import random_formula, random_store

# SHA-256 over net_to_text + explain of the canonical nets and 500 random nets,
# recorded before the network storage changed from dense matrices to wires.
GOLDEN_DIGEST = "4c05839041b3c2873673f85219626cb1c4fe535ba37980acd8461e6e0adcab77"

CHAIN_NET = (
    "dim\t2\nlayers\t2\nout_index\t1\nbias\t0 0\natom\t0\tconst\th\n"
    "case\t0\t0\ncase\t1\t3\nformula\t0\t@h\nformula\t1\t<R1>=1 @h\n"
    "comb\t0\t0\t1\nagg\tR1\t0\t1\t1\n"
)


def _golden_nets():
    arena = FormulaArena()
    for kind in ("C", "I", "Uprime"):
        yield compile_formula(arena, canonical_formula(arena, kind))
    rng = random.Random(7)
    for _ in range(500):
        store = random_store(rng, max_entities=6)
        arena = FormulaArena()
        fid = random_formula(
            rng, arena, store.relation_names, preds=("P1",), constants=("h",)
        )
        yield compile_formula(arena, fid)


def test_compiler_output_golden_digest():
    digest = hashlib.sha256()
    for net in _golden_nets():
        digest.update(net_to_text(net).encode("utf-8"))
        digest.update(explain(net).encode("utf-8"))
    assert digest.hexdigest() == GOLDEN_DIGEST


def test_random_nets_roundtrip_through_text():
    for net in _golden_nets():
        again = net_from_text(net_to_text(net))
        assert again.comb == net.comb
        assert again.agg == net.agg
        assert explain(again) == explain(net)


def test_wires_per_column():
    arena = FormulaArena()
    net = compile_formula(arena, parse("(<R2>=3 P(a) & !P(a))", arena))
    assert net.inputs == [
        [(None, 0, 1)],
        [("R2", 0, 1)],
        [(None, 0, -1)],
        [(None, 1, 1), (None, 2, 1)],
    ]
    assert all(len(wires) <= 2 for wires in net.inputs)


def test_chain_fixture_parses():
    net = net_from_text(CHAIN_NET)
    assert net.inputs == [[(None, 0, 1)], [("R1", 0, 1)]]
    assert net_to_text(net) == CHAIN_NET


@pytest.mark.parametrize(
    "old, new",
    [
        ("comb\t0\t0\t1", "comb\t2\t0\t1"),
        ("comb\t0\t0\t1", "comb\t0\t-1\t1"),
        ("agg\tR1\t0\t1\t1", "agg\tR1\t5\t1\t1"),
        ("agg\tR1\t0\t1\t1", "agg\tR1\t0\t2\t1"),
        ("atom\t0\tconst\th", "atom\t3\tconst\th"),
        ("case\t1\t3", "case\t2\t3"),
        ("formula\t1\t<R1>=1 @h", "formula\t9\t<R1>=1 @h"),
    ],
)
def test_out_of_range_index_names_line(old, new):
    text = CHAIN_NET.replace(old, new)
    lineno = text.split("\n").index(new) + 1
    with pytest.raises(EvaluationError, match=f"line {lineno}:.*out of range"):
        net_from_text(text)


@pytest.mark.parametrize("value", ["2", "-1"])
def test_bad_out_index(value):
    text = CHAIN_NET.replace("out_index\t1", f"out_index\t{value}")
    with pytest.raises(EvaluationError, match="line 3:.*out of range"):
        net_from_text(text)


@pytest.mark.parametrize(
    "old, new",
    [
        ("dim\t2", "dim\t2\textra"),
        ("bias\t0 0", "bias\t0 0\t0"),
        ("atom\t0\tconst\th", "atom\t0\tconst\th\tx"),
        ("case\t1\t3", "case\t1\t3\t0"),
        ("formula\t1\t<R1>=1 @h", "formula\t1\t<R1>=1 @h\ty"),
        ("comb\t0\t0\t1", "comb\t0\t0\t1\t1"),
        ("agg\tR1\t0\t1\t1", "agg\tR1\t0\t1"),
    ],
)
def test_wrong_field_count_names_line(old, new):
    text = CHAIN_NET.replace(old, new)
    lineno = text.split("\n").index(new) + 1
    with pytest.raises(EvaluationError, match=f"line {lineno}:.*fields"):
        net_from_text(text)


@pytest.mark.parametrize(
    "text, position",
    [
        ("P(x\ty)", 3),
        ("P(x\ny)", 3),
        ("<R\tx>=1 top", 2),
        ("<R\nx>=1 top", 2),
    ],
)
def test_tab_or_newline_in_name_rejected(text, position):
    with pytest.raises(FormulaSyntaxError) as info:
        parse(text, FormulaArena())
    assert info.value.position == position


@pytest.mark.parametrize("value", ["-1", "-3"])
def test_negative_layers_names_line(value):
    text = CHAIN_NET.replace("layers\t2", f"layers\t{value}")
    with pytest.raises(EvaluationError, match="line 2:.*negative layers"):
        net_from_text(text)


@pytest.mark.parametrize(
    "line, repeat",
    [
        ("dim\t2", "dim\t2"),
        ("layers\t2", "layers\t3"),
        ("out_index\t1", "out_index\t0"),
        ("bias\t0 0", "bias\t0 1"),
        ("atom\t0\tconst\th", "atom\t0\ttop"),
        ("case\t1\t3", "case\t1\t2"),
        ("formula\t1\t<R1>=1 @h", "formula\t1\t@h"),
        ("comb\t0\t0\t1", "comb\t0\t0\t-1"),
        ("comb\t0\t0\t1", "comb\t00\t0\t1"),
        ("agg\tR1\t0\t1\t1", "agg\tR1\t0\t1\t0"),
    ],
)
def test_repeated_line_names_line(line, repeat):
    text = CHAIN_NET.replace(line, f"{line}\n{repeat}")
    lineno = text.split("\n").index(line) + 2
    with pytest.raises(EvaluationError, match=f"line {lineno}: repeats"):
        net_from_text(text)


def test_same_cell_of_another_relation_is_no_repeat():
    text = CHAIN_NET + "agg\tR2\t0\t1\t1\n"
    assert net_from_text(text).inputs[1] == [("R1", 0, 1), ("R2", 0, 1)]


@pytest.mark.parametrize("bias", ["", "0", "0 0 0"])
def test_bias_count_other_than_dim_names_line(bias):
    text = CHAIN_NET.replace("bias\t0 0", f"bias\t{bias}")
    with pytest.raises(EvaluationError, match="line 4: bias has .* expected dim 2"):
        net_from_text(text)


@pytest.mark.parametrize("bias", ["", "0 0"])
def test_negative_dim_is_a_range_error(bias):
    text = CHAIN_NET.replace("dim\t2", "dim\t-2").replace("bias\t0 0", f"bias\t{bias}")
    with pytest.raises(EvaluationError, match="line 1: dim -2 out of range"):
        net_from_text(text)


@pytest.mark.parametrize(
    "text, message",
    [
        (CHAIN_NET + "wire\t0\t1\n", "line 12: unknown section 'wire'"),
        (CHAIN_NET.replace("layers\t2\n", ""), "missing 'layers' header"),
        (CHAIN_NET.replace("dim\t2", "dim\ttwo"), "line 1: malformed entry 'two'"),
        (CHAIN_NET.replace("comb\t0\t0\t1", "comb\t0\t0\tx"),
         "line 10: malformed entry 'x'"),
    ],
    ids=["unknown-section", "missing-header", "non-integer-dim", "non-integer-weight"],
)
def test_malformed_net_text_is_named(text, message):
    with pytest.raises(EvaluationError) as info:
        net_from_text(text)
    assert str(info.value) == message
