"""Parser for the univariate expression mini-language used by the CLI.

Grammar (whitespace ignored):

    expr   := term ('+' term)*
    term   := factor ('*' factor)*
    factor := 'x' ['^' int] | 'a' ['^' int] | 'Tr' ['^' int] '(' expr ')'
            | '0x' hex | digits

'a' is the field's primitive element (negative exponents wrap), Tr is the
absolute trace, Tr^m the trace onto GF(2^m).  Expressions evaluate to a
full lookup table over the field, so any parsed expression becomes a VBF.
"""

import re

import numpy as np

from .errors import ParseError
from .vbf import VBF

_TOKEN = re.compile(r"\s*(0x[0-9a-fA-F]+|\d+|Tr|[xa^*+()]|-)")


def _tokenize(text):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        tok = m.group(1)
        out.append((tok, m.start(1)))
        pos = m.end()
    out.append((None, len(text)))
    return out


class _Parser:
    def __init__(self, ctx, text):
        self.ctx = ctx
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i][0]

    def next(self):
        tok, pos = self.toks[self.i]
        self.i += 1
        return tok, pos

    def expect(self, want):
        tok, pos = self.next()
        if tok != want:
            raise ParseError(f"expected {want!r}, found {tok!r}", pos)

    def parse(self):
        vals = self.expr()
        tok, pos = self.next()
        if tok is not None:
            raise ParseError(f"trailing input {tok!r}", pos)
        return vals

    def expr(self):
        acc = self.term()
        while self.peek() == "+":
            self.next()
            acc = acc ^ self.term()
        return acc

    def term(self):
        acc = self.factor()
        while self.peek() == "*":
            self.next()
            acc = self.ctx.mulv(acc, self.factor())
        return acc

    def _int(self, allow_negative=True):
        tok, pos = self.next()
        sign = 1
        if tok == "-" and allow_negative:
            sign = -1
            tok, pos = self.next()
        if tok is None or not re.fullmatch(r"\d+", tok):
            raise ParseError(f"expected an integer, found {tok!r}", pos)
        return sign * int(tok)

    def factor(self):
        ctx = self.ctx
        order = ctx.order
        tok, pos = self.next()
        if tok == "x":
            e = 1
            if self.peek() == "^":
                self.next()
                e = self._int()
            if e < 0:
                e = e % ctx.mult_order + ctx.mult_order
            return ctx.pow_table(e).copy()
        if tok == "a":
            e = 1
            if self.peek() == "^":
                self.next()
                e = self._int()
            return np.full(order, ctx.alpha_pow(e), dtype=np.int64)
        if tok == "Tr":
            m = 1
            if self.peek() == "^":
                self.next()
                m = self._int(allow_negative=False)
            self.expect("(")
            inner = self.expr()
            self.expect(")")
            if m == 1:
                return ctx.trace_table()[inner].astype(np.int64)
            return ctx.rel_tracev(m, inner)
        if tok is not None and re.fullmatch(r"0x[0-9a-fA-F]+|\d+", tok):
            v = int(tok, 0)
            if not 0 <= v < order:
                raise ParseError(f"constant 0x{v:x} outside the field", pos)
            return np.full(order, v, dtype=np.int64)
        raise ParseError(f"unexpected token {tok!r}", pos)


def parse_univariate(ctx, text) -> VBF:
    """Evaluate an expression into a VBF over ctx."""
    return VBF(ctx, _Parser(ctx, text).parse())
