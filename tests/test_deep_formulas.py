"""Formulas built through the arena API, deeper than the parser accepts."""

import pytest

from kglogic import FormulaArena, compile_formula, format_formula

CHAINS = {
    # kind: (build one level over f, text of k levels over top)
    "not": (lambda a, f: a.neg(f), lambda k: "!" * k + "top"),
    "and": (lambda a, f: a.conj(f, a.top()), lambda k: "(" * k + "top" + " & top)" * k),
    "diamond": (lambda a, f: a.diamond(1, "R", f), lambda k: "<R>=1 " * k + "top"),
}


@pytest.mark.parametrize("depth", [1000, 5000])
@pytest.mark.parametrize("kind", sorted(CHAINS))
def test_deep_chain_formats_and_compiles(kind, depth):
    build, text = CHAINS[kind]
    arena = FormulaArena()
    fid = arena.top()
    for _ in range(depth):
        fid = build(arena, fid)
    assert format_formula(arena, fid) == text(depth)
    net = compile_formula(arena, fid)
    assert net.dim == depth + 1
    assert net.column_formulas[net.out_index] == text(depth)
    assert net.column_formulas[0] == "top"
