"""Boolean expression AST and parser.

Cells in the paper are expressed as inverting gates of sum-of-products /
product-of-sums functions (NAND, NOR, AOI, OAI).  This module provides a
small Boolean expression language used to describe the pull-down function of
a cell; :mod:`repro.logic.network` turns it into transistor networks.

Grammar (usual precedence NOT > AND > OR)::

    expr    := term ( ('+' | '|') term )*
    term    := factor ( ('*' | '&')? factor )*      # adjacency means AND
    factor  := ('!' | '~') factor | atom "'"*
    atom    := '(' expr ')' | identifier | '0' | '1'

``(A*B+C)'`` and ``!(A&B|C)`` both parse to the same expression.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

from ..errors import ExpressionParseError, LogicError


class Expr:
    """Base class of all Boolean expression nodes."""

    def variables(self) -> FrozenSet[str]:
        """The set of variable names appearing in the expression."""
        raise NotImplementedError

    def evaluate(self, assignment: Dict[str, bool]) -> bool:
        """Evaluate under a variable assignment."""
        raise NotImplementedError

    def __invert__(self) -> "Expr":
        return Not(self)

    def __and__(self, other: "Expr") -> "Expr":
        return And((self, _as_expr(other)))

    def __or__(self, other: "Expr") -> "Expr":
        return Or((self, _as_expr(other)))

    def __rand__(self, other) -> "Expr":
        return And((_as_expr(other), self))

    def __ror__(self, other) -> "Expr":
        return Or((_as_expr(other), self))


def _as_expr(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, str):
        return Var(value)
    if isinstance(value, bool):
        return Const(value)
    raise LogicError(f"Cannot interpret {value!r} as a Boolean expression")


@dataclass(frozen=True)
class Const(Expr):
    """Boolean constant."""

    value: bool

    def variables(self) -> FrozenSet[str]:
        return frozenset()

    def evaluate(self, assignment: Dict[str, bool]) -> bool:
        return self.value

    def __str__(self) -> str:
        return "1" if self.value else "0"


@dataclass(frozen=True)
class Var(Expr):
    """A named input variable."""

    name: str

    def __post_init__(self):
        if not self.name or not self.name[0].isalpha():
            raise LogicError(f"Invalid variable name {self.name!r}")

    def variables(self) -> FrozenSet[str]:
        return frozenset({self.name})

    def evaluate(self, assignment: Dict[str, bool]) -> bool:
        try:
            return bool(assignment[self.name])
        except KeyError:
            raise LogicError(f"No value provided for variable {self.name!r}") from None

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Not(Expr):
    """Logical negation."""

    operand: Expr

    def variables(self) -> FrozenSet[str]:
        return self.operand.variables()

    def evaluate(self, assignment: Dict[str, bool]) -> bool:
        return not self.operand.evaluate(assignment)

    def __str__(self) -> str:
        return f"{_maybe_paren(self.operand)}'"


@dataclass(frozen=True)
class And(Expr):
    """Logical conjunction of two or more operands."""

    operands: Tuple[Expr, ...]

    def __post_init__(self):
        if len(self.operands) < 2:
            raise LogicError("And requires at least two operands")

    def variables(self) -> FrozenSet[str]:
        names: FrozenSet[str] = frozenset()
        for operand in self.operands:
            names |= operand.variables()
        return names

    def evaluate(self, assignment: Dict[str, bool]) -> bool:
        return all(operand.evaluate(assignment) for operand in self.operands)

    def __str__(self) -> str:
        return "*".join(_maybe_paren(op, inside="and") for op in self.operands)


@dataclass(frozen=True)
class Or(Expr):
    """Logical disjunction of two or more operands."""

    operands: Tuple[Expr, ...]

    def __post_init__(self):
        if len(self.operands) < 2:
            raise LogicError("Or requires at least two operands")

    def variables(self) -> FrozenSet[str]:
        names: FrozenSet[str] = frozenset()
        for operand in self.operands:
            names |= operand.variables()
        return names

    def evaluate(self, assignment: Dict[str, bool]) -> bool:
        return any(operand.evaluate(assignment) for operand in self.operands)

    def __str__(self) -> str:
        return " + ".join(_maybe_paren(op, inside="or") for op in self.operands)


def _maybe_paren(expr: Expr, inside: str = "not") -> str:
    text = str(expr)
    if isinstance(expr, Or) and inside in ("and", "not"):
        return f"({text})"
    if isinstance(expr, And) and inside == "not":
        return f"({text})"
    return text


# ---------------------------------------------------------------------------
# Convenience constructors
# ---------------------------------------------------------------------------

def var(name: str) -> Var:
    """Shorthand for :class:`Var`."""
    return Var(name)


def and_(*operands) -> Expr:
    """N-ary AND (flattens nested ANDs, drops redundant constants)."""
    flat: List[Expr] = []
    for operand in operands:
        expr = _as_expr(operand)
        if isinstance(expr, And):
            flat.extend(expr.operands)
        elif isinstance(expr, Const):
            if not expr.value:
                return Const(False)
        else:
            flat.append(expr)
    if not flat:
        return Const(True)
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def or_(*operands) -> Expr:
    """N-ary OR (flattens nested ORs, drops redundant constants)."""
    flat: List[Expr] = []
    for operand in operands:
        expr = _as_expr(operand)
        if isinstance(expr, Or):
            flat.extend(expr.operands)
        elif isinstance(expr, Const):
            if expr.value:
                return Const(True)
        else:
            flat.append(expr)
    if not flat:
        return Const(False)
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def not_(operand) -> Expr:
    """Negation with double-negation elimination."""
    expr = _as_expr(operand)
    if isinstance(expr, Not):
        return expr.operand
    if isinstance(expr, Const):
        return Const(not expr.value)
    return Not(expr)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.position = 0

    def peek(self) -> str:
        while self.position < len(self.text) and self.text[self.position].isspace():
            self.position += 1
        if self.position >= len(self.text):
            return ""
        return self.text[self.position]

    def take(self) -> str:
        char = self.peek()
        if char:
            self.position += 1
        return char

    def take_identifier(self) -> str:
        self.peek()  # skip whitespace
        start = self.position
        while self.position < len(self.text) and (
            self.text[self.position].isalnum() or self.text[self.position] in "_[]<>"
        ):
            self.position += 1
        return self.text[start:self.position]

    def error(self, message: str) -> ExpressionParseError:
        return ExpressionParseError(message, self.text, self.position)


def parse_expression(text: str) -> Expr:
    """Parse a Boolean expression string into an :class:`Expr` tree."""
    tokenizer = _Tokenizer(text)
    expr = _parse_or(tokenizer)
    if tokenizer.peek():
        raise tokenizer.error(f"Unexpected character {tokenizer.peek()!r}")
    return expr


def _parse_or(tok: _Tokenizer) -> Expr:
    operands = [_parse_and(tok)]
    while tok.peek() in ("+", "|"):
        tok.take()
        operands.append(_parse_and(tok))
    return or_(*operands) if len(operands) > 1 else operands[0]


def _parse_and(tok: _Tokenizer) -> Expr:
    operands = [_parse_factor(tok)]
    while True:
        char = tok.peek()
        if char in ("*", "&"):
            tok.take()
            operands.append(_parse_factor(tok))
        elif char and (char.isalnum() or char in "(!~"):
            # implicit AND by adjacency, e.g. "AB + C"
            operands.append(_parse_factor(tok))
        else:
            break
    return and_(*operands) if len(operands) > 1 else operands[0]


def _parse_factor(tok: _Tokenizer) -> Expr:
    char = tok.peek()
    if char in ("!", "~"):
        tok.take()
        return not_(_parse_factor(tok))
    expr = _parse_atom(tok)
    while tok.peek() == "'":
        tok.take()
        expr = not_(expr)
    return expr


def _parse_atom(tok: _Tokenizer) -> Expr:
    char = tok.peek()
    if char == "(":
        tok.take()
        expr = _parse_or(tok)
        if tok.peek() != ")":
            raise tok.error("Expected ')'")
        tok.take()
        return expr
    if char == "0":
        tok.take()
        return Const(False)
    if char == "1":
        tok.take()
        return Const(True)
    if char and char.isalpha():
        name = tok.take_identifier()
        if not name:
            raise tok.error("Expected identifier")
        return Var(name)
    raise tok.error(f"Unexpected character {char!r}" if char else "Unexpected end of input")
