"""Printing and compiling a deep formula take memory linear in its depth.

Keeping the text of every subformula made both quadratic: about 100 MB for
the 5,000-deep `&` chain below.  Its text has 30,000 characters.
"""

import tracemalloc

import pytest

from kglogic import (
    FormulaArena, compile_formula, format_formula, net_from_text, net_to_text,
)

LIMIT = 4_000_000  # bytes; each call below peaks under 1.5 MB


def _and_chain(depth):
    arena = FormulaArena()
    fid = arena.top()
    for _ in range(depth):
        fid = arena.conj(fid, arena.top())
    return arena, fid


def _peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("step", [format_formula, compile_formula])
def test_deep_chain_peak_is_linear(step):
    arena, fid = _and_chain(5000)
    assert _peak(lambda: step(arena, fid)) < LIMIT


def test_compiled_texts_match_the_net_read_back():
    arena, fid = _and_chain(40)
    net = compile_formula(arena, fid)
    again = net_from_text(net_to_text(net))
    assert list(net.column_formulas) == list(again.column_formulas)
    assert [net.column_formulas[c] for c in range(net.dim)] == again.column_formulas
    assert again.column_formulas[-1] == format_formula(arena, fid)
