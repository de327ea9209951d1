"""Arithmetic grammar for phase entries in config files.

EXPR   := TERM (('+' | '-') TERM)*
TERM   := FACTOR (('*' | '/') FACTOR)*
FACTOR := NUMBER | 'pi' | '(' EXPR ')' | '-' FACTOR

Left-associative, whitespace ignored, evaluated in double precision.
NUMBER is a decimal integer with an optional fraction part.  At most
MAX_NESTING parentheses and unary minus signs may enclose one another.
"""

from __future__ import annotations

import math

MAX_NESTING = 100


class PhaseExprError(ValueError):
    """Malformed phase expression; ``position`` is the 0-based offset."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} at offset {position}")
        self.position = position


def parse_phase_expr(source: str) -> float:
    """Evaluate an expression such as "pi/3" or "2*(pi/4) - pi/2" to radians."""
    parser = _Parser(source)
    value = parser.expr()
    parser.skip_space()
    if parser.pos != len(parser.source):
        raise PhaseExprError("unexpected character", parser.pos)
    return value


class _Parser:
    def __init__(self, source: str) -> None:
        self.source = source
        self.pos = 0
        self.depth = 0

    def skip_space(self) -> None:
        while self.pos < len(self.source) and self.source[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.source[self.pos] if self.pos < len(self.source) else ""

    def expr(self) -> float:
        value = self.term()
        while True:
            self.skip_space()
            op = self.peek()
            if op not in ("+", "-"):
                return value
            self.pos += 1
            right = self.term()
            value = value + right if op == "+" else value - right

    def term(self) -> float:
        value = self.factor()
        while True:
            self.skip_space()
            op = self.peek()
            if op not in ("*", "/"):
                return value
            op_pos = self.pos
            self.pos += 1
            right = self.factor()
            if op == "*":
                value *= right
            else:
                if right == 0.0:
                    raise PhaseExprError("division by zero", op_pos)
                value /= right

    def factor(self) -> float:
        self.skip_space()
        ch = self.peek()
        if ch in ("-", "("):
            return self.nested(ch)
        if ch.isdigit():
            return self.number()
        if self.source.startswith("pi", self.pos):
            self.pos += 2
            return math.pi
        raise PhaseExprError("expected a number, 'pi', '(' or '-'", self.pos)

    def nested(self, ch: str) -> float:
        if self.depth == MAX_NESTING:
            raise PhaseExprError(f"nesting deeper than {MAX_NESTING} levels", self.pos)
        self.depth += 1
        self.pos += 1
        if ch == "-":
            value = -self.factor()
        else:
            value = self.expr()
            self.skip_space()
            if self.peek() != ")":
                raise PhaseExprError("expected ')'", self.pos)
            self.pos += 1
        self.depth -= 1
        return value

    def number(self) -> float:
        start = self.pos
        while self.peek().isdigit():
            self.pos += 1
        if self.peek() == ".":
            self.pos += 1
            if not self.peek().isdigit():
                raise PhaseExprError("expected digits after '.'", self.pos)
            while self.peek().isdigit():
                self.pos += 1
        return float(self.source[start : self.pos])
