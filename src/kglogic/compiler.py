"""Compile formulas into explicit integer message-passing networks.

Each distinct subformula owns one coordinate (column).  A column is wired by
case: atoms copy themselves, conjunctions sum their two inputs with bias -1,
negations flip one input with bias +1, and a diamond over relation R with
threshold N sums the incoming R-neighbors' input coordinate with bias -N+1.
Running the clamp activation min(max(0, x), 1) for as many rounds as there
are columns makes every coordinate equal its subformula's truth bit at every
entity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from .errors import EvaluationError
from .formulas import (
    And,
    Const,
    Diamond,
    FormulaArena,
    Node,
    Not,
    Pred,
    Top,
    format_formula,
    format_subformulas,
)

# One input of a column: (relation, row, weight).  relation None is a
# combination wire reading column `row` at the same entity; a relation name is
# an aggregation wire summing column `row` over the incoming R-neighbors.
Wire = tuple[Optional[str], int, int]


@dataclass
class CompiledNet:
    """Integer network over the subformula dimension, stored as sparse wiring.

    inputs[col] lists the nonzero wires into column col, at most one per
    (relation, row): combination wires first by row, then aggregation wires
    by (relation, row).  A compiled column has at most two wires.  bias is a
    dim-vector and out_index is the root subformula's column.  atoms records
    how each atomic column is initialized: ("top", None), ("pred", name), or
    ("const", name).  comb and agg are dense read-only views of the wires.
    column_formulas holds each column's subformula text: a compiled net
    prints it from the arena on each read, and a net read back from text
    keeps the parsed texts.
    """

    dim: int
    inputs: list[list[Wire]]
    bias: list[int]
    out_index: int
    atoms: dict[int, tuple[str, Optional[str]]]
    layers: int
    column_formulas: Sequence[str] = field(default_factory=list)
    column_cases: list[int] = field(default_factory=list)

    def _matrix(self, relation: Optional[str]) -> list[list[int]]:
        matrix = [[0] * self.dim for _ in range(self.dim)]
        for col, wires in enumerate(self.inputs):
            for rel, row, weight in wires:
                if rel == relation:
                    matrix[row][col] = weight
        return matrix

    @property
    def comb(self) -> list[list[int]]:
        """dim x dim combination matrix (row = input, column = output)."""
        return self._matrix(None)

    @property
    def agg(self) -> dict[str, list[list[int]]]:
        """Relation name -> dim x dim aggregation matrix."""
        rels = dict.fromkeys(rel for wires in self.inputs for rel, _, _ in wires)
        return {rel: self._matrix(rel) for rel in rels if rel is not None}


class _ColumnTexts(Sequence[str]):
    """Column texts printed from the arena on each read, so that a compiled
    net stores no text and its memory stays linear in the formula's depth.
    Iterating prints every column at once, joining each text from its
    children's."""

    def __init__(self, arena: FormulaArena, order: tuple[tuple[int, Node], ...]):
        self._arena = arena
        self._order = order

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, col: int) -> str:
        return format_formula(self._arena, self._order[col][0])

    def __iter__(self) -> Iterator[str]:
        # the root is the last column
        yield from format_subformulas(self._arena, self._order[-1][0]).values()


def compile_formula(arena: FormulaArena, root: int) -> CompiledNet:
    """Build the network for `root`; a pure function of the hash-consed arena."""
    order = arena.subformulas(root)
    dim = len(order)
    col_of = {fid: i for i, (fid, _) in enumerate(order)}
    inputs: list[list[Wire]] = []
    bias = [0] * dim
    atoms: dict[int, tuple[str, Optional[str]]] = {}
    column_cases = [0] * dim

    for col, (_, node) in enumerate(order):
        if isinstance(node, (Top, Pred, Const)):
            wires = [(None, col, 1)]
            if isinstance(node, Top):
                atoms[col] = ("top", None)
            else:
                atoms[col] = ("pred" if isinstance(node, Pred) else "const", node.name)
        elif isinstance(node, And):
            j, k = sorted((col_of[node.left], col_of[node.right]))
            if j == k:
                # f & f collapses to one shared input; pass it through.
                wires = [(None, j, 1)]
            else:
                wires = [(None, j, 1), (None, k, 1)]
                bias[col] = -1
            column_cases[col] = 1
        elif isinstance(node, Not):
            wires = [(None, col_of[node.sub], -1)]
            bias[col] = 1
            column_cases[col] = 2
        elif isinstance(node, Diamond):
            wires = [(node.relation, col_of[node.sub], 1)]
            bias[col] = -node.count + 1
            column_cases[col] = 3
        else:  # pragma: no cover - exhaustive over the AST
            raise EvaluationError(f"cannot compile node {node!r}")
        inputs.append(wires)

    return CompiledNet(
        dim=dim,
        inputs=inputs,
        bias=bias,
        out_index=dim - 1,
        atoms=atoms,
        layers=dim,
        column_formulas=_ColumnTexts(arena, order),
        column_cases=column_cases,
    )


def explain(net: CompiledNet) -> str:
    """Human-readable per-column wiring report."""
    lines = []
    formulas = list(net.column_formulas) or [""] * net.dim
    for col, wires in enumerate(net.inputs):
        entries = [
            f"comb[{row},{col}]={weight}" if rel is None
            else f"agg[{rel}][{row},{col}]={weight}"
            for rel, row, weight in wires
        ]
        if net.bias[col]:
            entries.append(f"bias[{col}]={net.bias[col]}")
        atom = net.atoms.get(col)
        if atom is not None:
            kind, name = atom
            entries.append(f"atom={kind}" + (f":{name}" if name else ""))
        lines.append(
            f"col {col}: Case {net.column_cases[col]}; {formulas[col]}; "
            + ", ".join(entries)
        )
    return "\n".join(lines) + "\n"


def net_to_text(net: CompiledNet) -> str:
    """Serialize with a fixed section and key order.

    comb lines are row-major; agg lines are sorted by relation, then
    row-major.
    """
    lines = [
        f"dim\t{net.dim}",
        f"layers\t{net.layers}",
        f"out_index\t{net.out_index}",
        "bias\t" + " ".join(str(b) for b in net.bias),
    ]
    for col in sorted(net.atoms):
        kind, name = net.atoms[col]
        if name is None:
            lines.append(f"atom\t{col}\t{kind}")
        else:
            lines.append(f"atom\t{col}\t{kind}\t{name}")
    for col, case in enumerate(net.column_cases):
        lines.append(f"case\t{col}\t{case}")
    for col, text in enumerate(net.column_formulas):
        lines.append(f"formula\t{col}\t{text}")
    comb, agg = [], []
    for col, wires in enumerate(net.inputs):
        for rel, row, weight in wires:
            if rel is None:
                comb.append((row, col, weight))
            else:
                agg.append((rel, row, col, weight))
    lines.extend("comb\t%d\t%d\t%d" % entry for entry in sorted(comb))
    lines.extend("agg\t%s\t%d\t%d\t%d" % entry for entry in sorted(agg))
    return "\n".join(lines) + "\n"


# section -> number of tab-separated fields (an atom of kind top has 3)
_FIELD_COUNTS = {
    "dim": 2, "layers": 2, "out_index": 2, "bias": 2, "atom": 4,
    "case": 3, "formula": 3, "comb": 4, "agg": 5,
}


def _num(lineno: int, value: str, bound: Optional[int] = None) -> int:
    """Integer field of a net text line; with `bound`, an index in [0, bound)."""
    try:
        i = int(value)
    except ValueError:
        raise EvaluationError(f"line {lineno}: malformed entry {value!r}") from None
    if bound is not None and not 0 <= i < bound:
        raise EvaluationError(f"line {lineno}: index {i} out of range [0, {bound})")
    return i


def _put(table: dict, key, value, lineno: int) -> None:
    """table[key] = value, unless an earlier line set the same entry."""
    if key in table:
        raise EvaluationError(f"line {lineno}: repeats an earlier line's entry")
    table[key] = value


def net_from_text(text: str) -> CompiledNet:
    """Inverse of net_to_text; a malformed or repeated line raises with its number."""
    header: dict[str, tuple[int, str]] = {}
    sections: dict[str, list[tuple[int, list[str]]]] = {k: [] for k in _FIELD_COUNTS}
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line:
            continue
        key, *fields = line.split("\t")
        if key not in sections:
            raise EvaluationError(f"line {lineno}: unknown section {key!r}")
        want = 3 if key == "atom" and fields[1:2] == ["top"] else _FIELD_COUNTS[key]
        if len(fields) + 1 != want:
            raise EvaluationError(
                f"line {lineno}: {key!r} entry needs {want} tab-separated fields, "
                f"got {len(fields) + 1}"
            )
        if want == 2:
            _put(header, key, (lineno, fields[0]), lineno)
        else:
            sections[key].append((lineno, fields))
    for key in ("dim", "layers", "out_index", "bias"):
        if key not in header:
            raise EvaluationError(f"missing {key!r} header")

    dim_line, text_dim = header["dim"]
    dim = _num(dim_line, text_dim)
    if dim < 0:
        raise EvaluationError(f"line {dim_line}: dim {dim} out of range, must be >= 0")
    lineno, text_bias = header["bias"]
    bias = [_num(lineno, b) for b in text_bias.split(" ")] if text_bias else []
    if len(bias) != dim:
        raise EvaluationError(
            f"line {lineno}: bias has {len(bias)} entries, expected dim {dim}"
        )
    layers = _num(*header["layers"])
    if layers < 0:
        raise EvaluationError(f"line {header['layers'][0]}: negative layers {layers}")

    weights: list[dict[tuple[Optional[str], int], int]] = [{} for _ in range(dim)]
    wire_lines = [(ln, None, *f) for ln, f in sections["comb"]]
    wire_lines += [(ln, *f) for ln, f in sections["agg"]]
    for ln, rel, row, col, weight in wire_lines:
        wire = (rel, _num(ln, row, dim))
        _put(weights[_num(ln, col, dim)], wire, _num(ln, weight), ln)
    atoms: dict[int, tuple[str, Optional[str]]] = {}
    formulas: dict[int, str] = {}
    cases: dict[int, int] = {}
    for ln, f in sections["atom"]:
        _put(atoms, _num(ln, f[0], dim), (f[1], f[2] if len(f) > 2 else None), ln)
    for ln, f in sections["formula"]:
        _put(formulas, _num(ln, f[0], dim), f[1], ln)
    for ln, f in sections["case"]:
        _put(cases, _num(ln, f[0], dim), _num(ln, f[1]), ln)
    inputs = [
        sorted(
            ((rel, row, w) for (rel, row), w in col.items() if w),
            key=lambda wire: (wire[0] is not None, wire[0] or "", wire[1]),
        )
        for col in weights
    ]
    return CompiledNet(
        dim=dim,
        inputs=inputs,
        bias=bias,
        out_index=_num(*header["out_index"], dim),
        atoms=atoms,
        layers=layers,
        column_formulas=[formulas.get(i, "") for i in range(dim)],
        column_cases=[cases.get(i, 0) for i in range(dim)],
    )
