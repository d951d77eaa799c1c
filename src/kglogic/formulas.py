"""Counting-modal formulas: hash-consed arena, text grammar, canonical rules.

Grammar:

    formula := "top"
             | "P(" name ")"            unary predicate
             | "@" name                 constant predicate
             | "!" formula              negation
             | "(" formula "&" formula ")"
             | "(" formula "|" formula ")"   sugar for !(!a & !b)
             | "<" relation ">=" N formula   at least N incoming witnesses

`!` and the diamond apply to the formula immediately following them.

A formula nests at most MAX_NESTING operators on any root-to-leaf path: `!`,
`&` and a diamond count one, `(f | g)` three, as it stands for `!(!f & !g)`.
Deeper input raises FormulaSyntaxError, so what parses also compiles, formats
and parses back.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import EvaluationError, FormulaSyntaxError


class Top(NamedTuple):
    pass


class Pred(NamedTuple):
    name: str


class Const(NamedTuple):
    name: str


class Not(NamedTuple):
    sub: int


class And(NamedTuple):
    left: int
    right: int


class Diamond(NamedTuple):
    count: int
    relation: str
    sub: int


# A node equals only nodes of its own kind (Pred("x") != Const("x"), Top()
# != ()), so the arena interns each kind apart; hashes stay the fields' tuple's.
for _kind in (Top, Pred, Const, Not, And, Diamond):
    _kind.__eq__ = lambda a, b: type(b) is type(a) and tuple.__eq__(a, b)
    _kind.__ne__ = lambda a, b: not a == b

Node = Top | Pred | Const | Not | And | Diamond

MAX_NESTING = 100
_TOO_DEEP = f"formula nests deeper than {MAX_NESTING} operators"

_NAME_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_"
)


class FormulaArena:
    """Append-only node store; structurally equal subtrees share one id.

    Children always carry smaller ids than their parents, so ascending id
    order is a topological order.
    """

    def __init__(self):
        self._nodes: list[Node] = []
        self._ids: dict[Node, int] = {}
        self._orders: dict[int, tuple[tuple[int, Node], ...]] = {}

    def __len__(self) -> int:
        return len(self._nodes)

    def _intern(self, node: Node) -> int:
        fid = self._ids.get(node)
        if fid is None:
            fid = len(self._nodes)
            self._nodes.append(node)
            self._ids[node] = fid
        return fid

    def check(self, fid: int) -> None:
        # `type`, not isinstance: True is an int but no formula id
        if type(fid) is not int or not 0 <= fid < len(self._nodes):
            raise EvaluationError(f"invalid formula id {fid!r}")

    def node(self, fid: int) -> Node:
        self.check(fid)
        return self._nodes[fid]

    def subformulas(self, root: int) -> tuple[tuple[int, Node], ...]:
        """(id, node) per distinct subformula of `root`, children first; kept
        per root, as nodes are never changed or removed.  Every formula
        reader (checker, compiler, printer, analyses) takes this order."""
        self.check(root)
        if root not in self._orders:
            self._orders[root] = tuple(
                (f, self._nodes[f]) for f in enumerate_subformulas(self, root)
            )
        return self._orders[root]

    def top(self) -> int:
        return self._intern(Top())

    def pred(self, name: str) -> int:
        return self._intern(Pred(name))

    def const(self, name: str) -> int:
        return self._intern(Const(name))

    def neg(self, sub: int) -> int:
        self.check(sub)
        return self._intern(Not(sub))

    def conj(self, left: int, right: int) -> int:
        self.check(left)
        self.check(right)
        return self._intern(And(left, right))

    def diamond(self, count: int, relation: str, sub: int) -> int:
        if count < 1:
            raise EvaluationError(f"diamond count must be at least 1, got {count}")
        self.check(sub)
        return self._intern(Diamond(count, relation, sub))


class _Parser:
    def __init__(self, text: str, arena: FormulaArena):
        self.text = text
        self.pos = 0
        self.arena = arena
        self.depth = 0

    def parse(self) -> int:
        fid = self._formula()
        self._ws()
        if self.pos != len(self.text):
            raise FormulaSyntaxError("unexpected trailing input", self.pos)
        # operators on the longest path: `|` is three, but one _nested level
        if _longest_path(self.arena, fid, _children) > MAX_NESTING:
            raise FormulaSyntaxError(_TOO_DEEP, 0)
        return fid

    def _nested(self) -> int:
        # every operand is parsed here, so this bounds the recursion
        if self.depth == MAX_NESTING:
            raise FormulaSyntaxError(_TOO_DEEP, self.pos)
        self.depth += 1
        fid = self._formula()
        self.depth -= 1
        return fid

    def _ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _formula(self) -> int:
        self._ws()
        text, pos = self.text, self.pos
        if pos >= len(text):
            raise FormulaSyntaxError("unexpected end of input", pos)
        c = text[pos]
        if c == "!":
            self.pos += 1
            return self.arena.neg(self._nested())
        if c == "@":
            self.pos += 1
            return self.arena.const(self._name("constant"))
        if c == "<":
            return self._diamond()
        if c == "(":
            return self._group()
        if text.startswith("P(", pos):
            self.pos += 2
            end = text.find(")", self.pos)
            if end < 0:
                raise FormulaSyntaxError("unterminated predicate name", pos)
            name = self._delimited_name(end, "predicate")
            self.pos = end + 1
            return self.arena.pred(name)
        if text.startswith("top", pos) and (
            pos + 3 == len(text) or text[pos + 3] not in _NAME_CHARS
        ):
            self.pos += 3
            return self.arena.top()
        raise FormulaSyntaxError(f"unexpected character {c!r}", pos)

    def _name(self, what: str) -> str:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _NAME_CHARS:
            self.pos += 1
        if self.pos == start:
            raise FormulaSyntaxError(f"expected {what} name", start)
        return self.text[start : self.pos]

    def _delimited_name(self, end: int, what: str) -> str:
        # Names are written into tab- and line-separated files, so neither a
        # tab nor a newline may occur in them.
        name = self.text[self.pos : end]
        if not name:
            raise FormulaSyntaxError(f"empty {what} name", self.pos)
        for i, c in enumerate(name):
            if c in "\t\n":
                raise FormulaSyntaxError(
                    f"{what} name may not contain {c!r}", self.pos + i
                )
        return name

    def _diamond(self) -> int:
        start = self.pos
        self.pos += 1
        end = self.text.find(">", self.pos)
        if end < 0:
            raise FormulaSyntaxError("unterminated relation name", start)
        relation = self._delimited_name(end, "relation")
        self.pos = end + 1
        if self.pos >= len(self.text) or self.text[self.pos] != "=":
            raise FormulaSyntaxError("expected '=' after relation", self.pos)
        self.pos += 1
        numstart = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in "0123456789":
            self.pos += 1
        if self.pos == numstart:
            raise FormulaSyntaxError("expected count after '='", numstart)
        try:
            count = int(self.text[numstart : self.pos])
        except ValueError:  # more digits than int() converts
            raise FormulaSyntaxError("count has too many digits", numstart) from None
        if count < 1:
            raise FormulaSyntaxError("count must be at least 1", numstart)
        return self.arena.diamond(count, relation, self._nested())

    def _group(self) -> int:
        self.pos += 1
        left = self._nested()
        self._ws()
        if self.pos >= len(self.text) or self.text[self.pos] not in "&|":
            raise FormulaSyntaxError("expected '&' or '|'", self.pos)
        op = self.text[self.pos]
        self.pos += 1
        right = self._nested()
        self._ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ")":
            raise FormulaSyntaxError("expected ')'", self.pos)
        self.pos += 1
        if op == "&":
            return self.arena.conj(left, right)
        arena = self.arena
        return arena.neg(arena.conj(arena.neg(left), arena.neg(right)))


def parse(text: str, arena: FormulaArena) -> int:
    """Parse formula text into `arena`, returning the hash-consed root id."""
    return _Parser(text, arena).parse()


def _layout(node: Node) -> tuple:
    """A node's text, left to right, as literal pieces and child ids."""
    if isinstance(node, Top):
        return ("top",)
    if isinstance(node, Pred):
        return (f"P({node.name})",)
    if isinstance(node, Const):
        return (f"@{node.name}",)
    if isinstance(node, Not):
        return ("!", node.sub)
    if isinstance(node, And):
        return ("(", node.left, " & ", node.right, ")")
    return (f"<{node.relation}>={node.count} ", node.sub)


def format_formula(arena: FormulaArena, fid: int) -> str:
    """Deterministic printer; `parse(format_formula(a, f), a) == f`.

    An explicit stack of node ids and literal pieces emits the root's text
    alone, so memory is linear in the text, whatever the nesting depth.
    """
    pieces: list[str] = []
    stack: list = [fid]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            pieces.append(item)
        else:
            stack.extend(reversed(_layout(arena.node(item))))
    return "".join(pieces)


def format_subformulas(arena: FormulaArena, root: int) -> dict[int, str]:
    """Text of every subformula of `root`, keyed by id in topological order;
    each text is joined from its children's, in time linear in the texts."""
    text: dict[int, str] = {}
    for fid, node in arena.subformulas(root):
        text[fid] = "".join(p if isinstance(p, str) else text[p] for p in _layout(node))
    return text


def _children(node: Node) -> tuple[int, ...]:
    if isinstance(node, Not):
        return (node.sub,)
    if isinstance(node, And):
        return (node.left, node.right)
    if isinstance(node, Diamond):
        return (node.sub,)
    return ()


def enumerate_subformulas(arena: FormulaArena, root: int) -> list[int]:
    """Distinct subformula ids in topological order, children first, root last."""
    arena.check(root)
    seen: set[int] = set()
    stack = [root]
    while stack:
        fid = stack.pop()
        if fid in seen:
            continue
        seen.add(fid)
        stack.extend(_children(arena.node(fid)))
    return sorted(seen)


def _longest_path(arena: FormulaArena, root: int, counted) -> int:
    # the most nodes satisfying `counted` on one root-to-leaf path
    depth: dict[int, int] = {}
    for fid, node in arena.subformulas(root):
        inner = max((depth[k] for k in _children(node)), default=0)
        depth[fid] = inner + 1 if counted(node) else inner
    return depth[root]


def diamond_depth(arena: FormulaArena, root: int) -> int:
    """Maximum nesting depth of diamonds in the formula."""
    return _longest_path(arena, root, lambda node: isinstance(node, Diamond))


def constants_in(arena: FormulaArena, root: int) -> set[str]:
    return {n.name for _, n in arena.subformulas(root) if isinstance(n, Const)}


def relations_in(arena: FormulaArena, root: int) -> set[str]:
    return {n.relation for _, n in arena.subformulas(root) if isinstance(n, Diamond)}


def is_negation_free(arena: FormulaArena, root: int) -> bool:
    return not any(isinstance(n, Not) for _, n in arena.subformulas(root))


# Canonical rule texts over relations R1..R5.  C is a three-hop chain from the
# query constant; I additionally requires two incoming R4 witnesses at the
# second chain entity; Uprime is the fork-join rule with the fork pinned by the
# abstract constant @c.
CHAIN_TEXT = "<R3>=1 <R2>=1 <R1>=1 @h"
I_TEXT = "<R3>=1 (<R4>=2 top & <R2>=1 <R1>=1 @h)"
UPRIME_TEXT = (
    "(<R4>=1 <R2>=1 (<R1>=1 @h & @c)"
    " & <R5>=1 <R3>=1 (<R1>=1 @h & @c))"
)

_CANONICAL_TEXTS = {"C": CHAIN_TEXT, "I": I_TEXT, "Uprime": UPRIME_TEXT}


def canonical_formula(arena: FormulaArena, kind: str) -> int:
    """Build one of the canonical rules: kind in {"C", "I", "Uprime"}."""
    text = _CANONICAL_TEXTS.get(kind)
    if text is None:
        raise EvaluationError(f"unknown canonical formula kind {kind!r}")
    return parse(text, arena)
