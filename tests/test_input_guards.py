"""Input guards: bool ids are no ids, and formula nesting is bounded."""

import pytest

from kglogic import (
    EvaluationError,
    FormulaArena,
    FormulaSyntaxError,
    TripleStore,
    compile_formula,
    format_formula,
    model_check,
    parse,
)
from kglogic.cli import main
from kglogic.formulas import MAX_NESTING


def _store():
    return TripleStore([("a", "R1", "b"), ("b", "R1", "a")])


@pytest.mark.parametrize("flag", [True, False])
def test_bool_entity_and_relation_ids_rejected(flag):
    store = _store()
    with pytest.raises(EvaluationError, match="invalid entity id"):
        store.neighbors(flag, 0)
    with pytest.raises(EvaluationError, match="invalid relation id"):
        store.neighbors(0, flag)
    with pytest.raises(EvaluationError, match="invalid entity id"):
        store.entity_name(flag)
    with pytest.raises(EvaluationError, match="invalid relation id"):
        store.relation_name(flag)


@pytest.mark.parametrize("flag", [True, False])
def test_bool_formula_id_rejected(flag):
    arena = FormulaArena()
    arena.top()
    arena.neg(0)
    with pytest.raises(EvaluationError, match="invalid formula id"):
        arena.node(flag)
    with pytest.raises(EvaluationError, match="invalid formula id"):
        arena.neg(flag)


@pytest.mark.parametrize("flag", [True, False])
def test_bool_binding_rejected_by_model_check(flag):
    store = _store()
    arena = FormulaArena()
    fid = parse("<R1>=1 @h", arena)
    with pytest.raises(EvaluationError, match="invalid entity id"):
        model_check(store, arena, fid, {"h": flag})


def _nest(form: str, depth: int) -> str:
    if form == "!":
        return "!" * depth + "top"
    if form == "<>":
        return "<R1>=1 " * depth + "top"
    return "(" * depth + "top" + f" {form} top)" * depth


# At the limit: `(f | g)` counts three operators, so 33 of them plus one `!`.
AT_LIMIT = {
    "!": _nest("!", MAX_NESTING),
    "&": _nest("&", MAX_NESTING),
    "<>": _nest("<>", MAX_NESTING),
    "|": "!" + _nest("|", (MAX_NESTING - 1) // 3),
}
OVER_LIMIT = {
    "!": _nest("!", MAX_NESTING + 1),
    "&": _nest("&", MAX_NESTING + 1),
    "<>": _nest("<>", MAX_NESTING + 1),
    "|": _nest("|", (MAX_NESTING - 1) // 3 + 1),
}


@pytest.mark.parametrize("form", sorted(AT_LIMIT))
def test_formula_at_limit_parses_compiles_and_round_trips(form):
    arena = FormulaArena()
    fid = parse(AT_LIMIT[form], arena)
    net = compile_formula(arena, fid)
    assert net.dim >= 2
    assert parse(format_formula(arena, fid), arena) == fid


@pytest.mark.parametrize("form", sorted(OVER_LIMIT))
def test_formula_over_limit_is_syntax_error(form):
    with pytest.raises(FormulaSyntaxError, match="nests deeper"):
        parse(OVER_LIMIT[form], FormulaArena())


def _cli(tmp_path, command, text):
    formula = tmp_path / "f.cml"
    formula.write_text(text + "\n")
    kg = tmp_path / "kg.tsv"
    kg.write_text("a\tR1\tb\nb\tR1\ta\n")
    argv = [command, "--formula", str(formula)]
    if command == "check":
        argv += ["--kg", str(kg)]
    return main(argv)


@pytest.mark.parametrize("command", ["compile", "check"])
@pytest.mark.parametrize("form", ["!", "&", "<>", "|"])
def test_cli_deep_formula_is_one_line_data_error(tmp_path, capsys, command, form):
    code = _cli(tmp_path, command, _nest(form, 5000))
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert err.count("\n") == 1 and "nests deeper" in err


@pytest.mark.parametrize("command", ["compile", "check"])
@pytest.mark.parametrize("form", sorted(AT_LIMIT))
def test_cli_formula_at_limit_succeeds(tmp_path, capsys, command, form):
    assert _cli(tmp_path, command, AT_LIMIT[form]) == 0
    assert capsys.readouterr().err == ""
