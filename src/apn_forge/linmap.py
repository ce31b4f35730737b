"""Linearized polynomials L(x) = sum c_i x^(2^i) over GF(2^n).

The coefficient vector is the canonical representation; the bit matrix,
kernel and full lookup table are derived on demand.  Kernels are returned
in ascending integer order so downstream output is deterministic.
"""

import random

import numpy as np

from . import f2
from .errors import ContextMismatch, InternalCheckFailed


class F2Matrix:
    """Bit matrix with rows packed as ints (bit j = column j)."""

    def __init__(self, rows, cols, bits):
        self.rows = rows
        self.cols = cols
        self.bits = list(bits)

    def rank(self):
        return f2.rank(self.bits)

    def apply(self, x):
        y = 0
        for i, row in enumerate(self.bits):
            y |= (int(row & x).bit_count() & 1) << i
        return y


class LinearizedPoly:
    def __init__(self, ctx, coeffs):
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != ctx.n:
            raise ValueError(f"need {ctx.n} coefficients, got {len(coeffs)}")
        self.ctx = ctx
        self.coeffs = coeffs
        self._lut = None

    # -- evaluation -------------------------------------------------------

    def eval(self, x):
        ctx = self.ctx
        acc, t = 0, x
        for c in self.coeffs:
            if c:
                acc ^= ctx.mul(c, t)
            t = ctx.mul(t, t)
        return acc

    def lut(self):
        """Full value table, built once from the basis images by F2-linear doubling."""
        if self._lut is None:
            self._lut = self.ctx.expand_linear(basis_images(self.ctx, self.coeffs))
            self._lut.setflags(write=False)
        return self._lut

    # -- structure ----------------------------------------------------------

    def to_matrix(self):
        n = self.ctx.n
        return F2Matrix(n, n, f2.transpose(basis_images(self.ctx, self.coeffs).tolist(), n))

    def kernel(self):
        basis = f2.nullspace(self.to_matrix().bits, self.ctx.n)
        return f2.span(basis)

    def rank(self):
        return self.to_matrix().rank()

    def is_permutation(self):
        return self.rank() == self.ctx.n

    def is_zero(self):
        return not any(self.coeffs)

    def adjoint(self):
        """Adjoint map: Tr(L(x)y) == Tr(x L*(y)) for all x, y."""
        ctx = self.ctx
        n = ctx.n
        coeffs = [ctx.pow(self.coeffs[(n - i) % n], 1 << i) for i in range(n)]
        adj = LinearizedPoly(ctx, coeffs)
        rng = random.Random(0xAD101)
        for _ in range(4):
            x = rng.randrange(ctx.order)
            y = rng.randrange(ctx.order)
            if ctx.trace(ctx.mul(self.eval(x), y)) != ctx.trace(ctx.mul(x, adj.eval(y))):
                raise InternalCheckFailed(f"adjoint fails Tr(L(x)y) = Tr(x L*(y)) at x={x}, y={y}")
        return adj

    def compose(self, other):
        """Coefficients of self(other(x)); exponents wrap via x^(2^n) = x."""
        self._check_ctx(other)
        ctx = self.ctx
        n = ctx.n
        out = [0] * n
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            for j, d in enumerate(other.coeffs):
                if not d:
                    continue
                out[(i + j) % n] ^= ctx.mul(c, ctx.pow(d, 1 << i))
        return LinearizedPoly(ctx, out)

    def __add__(self, other):
        self._check_ctx(other)
        return LinearizedPoly(self.ctx, [a ^ b for a, b in zip(self.coeffs, other.coeffs)])

    def _check_ctx(self, other):
        if not self.ctx.same_as(other.ctx):
            raise ContextMismatch("operands live in different field contexts")

    def __eq__(self, other):
        return (
            isinstance(other, LinearizedPoly)
            and self.ctx.same_as(other.ctx)
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ctx.n, self.ctx.modulus, self.coeffs))

    # -- text form ----------------------------------------------------------

    def to_text(self):
        return ",".join(format(c, "x") for c in self.coeffs)

    @classmethod
    def from_text(cls, ctx, text):
        return cls(ctx, [int(tok, 16) for tok in text.split(",")])

    def __repr__(self):
        return f"LinearizedPoly({self.to_text()})"


def basis_images(ctx, coeffs):
    """L(e_j) for e_j = 2^j, for each coefficient row of coeffs (shape (..., n)).

    One pass per coefficient keeps the temporaries at the size of the result.
    """
    c = np.asarray(coeffs, dtype=np.int64)
    out = np.zeros(c.shape, dtype=np.int64)
    for i in range(ctx.n):
        out ^= ctx.mulv(c[..., i, None], ctx.frobenius_basis[i])
    return out


def apply_images(images, points):
    """out[s, ...] = L_s(points) for the maps with L_s(e_j) = images[s, j].

    Each point is split into its bits, so no value table is built: the cost is
    n passes over an array of len(images) * points.size entries.
    """
    points = np.asarray(points)
    images = images.reshape(images.shape[:1] + (1,) * points.ndim + images.shape[1:])
    out = np.zeros(images.shape[:1] + points.shape, dtype=np.int64)
    for j in range(images.shape[-1]):
        out ^= images[..., j] * ((points >> j) & 1)
    return out


def zero(ctx):
    return LinearizedPoly(ctx, [0] * ctx.n)


def identity(ctx):
    return LinearizedPoly(ctx, [1] + [0] * (ctx.n - 1))


def frobenius(ctx, i):
    """x -> x^(2^i)."""
    c = [0] * ctx.n
    c[i % ctx.n] = 1
    return LinearizedPoly(ctx, c)


def trace_map(ctx):
    """The trace viewed as a map into GF(2^n) (all-ones coefficients)."""
    return LinearizedPoly(ctx, [1] * ctx.n)


def from_mask(ctx, mask):
    """Binary linearized polynomial: bit i of mask sets c_i = 1."""
    return LinearizedPoly(ctx, [(mask >> i) & 1 for i in range(ctx.n)])


def scaled(ctx, coeff_map):
    """Build from a sparse {power_index: coefficient} map."""
    c = [0] * ctx.n
    for i, v in coeff_map.items():
        c[i] = v
    return LinearizedPoly(ctx, c)
