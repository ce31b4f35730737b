"""Linearized polynomials L(x) = sum c_i x^(2^i) over GF(2^n).

The coefficient vector is the canonical representation; the rank, kernel
and full lookup table are derived on demand.  Kernels are returned
in ascending integer order so downstream output is deterministic.
"""

import random

import numpy as np

from . import f2
from .errors import BadCoefficients, ContextMismatch, InternalCheckFailed, ParseError


class LinearizedPoly:
    def __init__(self, ctx, coeffs):
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != ctx.n:
            raise BadCoefficients(f"need {ctx.n} coefficients, got {len(coeffs)}")
        if not 0 <= min(coeffs) <= max(coeffs) < ctx.order:
            raise BadCoefficients(f"coefficients {list(map(hex, coeffs))} are not all elements of GF(2^{ctx.n})")
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
            self._lut = f2.expand_linear(basis_images(self.ctx, self.coeffs))
            self._lut.setflags(write=False)
        return self._lut

    # -- structure ----------------------------------------------------------

    def kernel(self):
        rows = f2.transpose(basis_images(self.ctx, self.coeffs), self.ctx.n)
        return f2.span(f2.nullspace(rows, self.ctx.n))

    def rank(self):
        return f2.rank(basis_images(self.ctx, self.coeffs))  # the column rank

    def is_permutation(self):
        return self.rank() == self.ctx.n

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
        try:
            coeffs = [int(tok, 16) for tok in text.split(",")]
        except ValueError:
            raise ParseError(f"{text!r} is not a comma-separated list of hex coefficients") from None
        return cls(ctx, coeffs)

    def __repr__(self):
        return f"LinearizedPoly({self.to_text()})"


def basis_images(ctx, coeffs):
    """L(e_j) for e_j = 2^j, for each coefficient row of coeffs (shape (..., n)).

    One pass per coefficient keeps the temporaries at the size of the result.
    When every coefficient is 0 or 1 the field product is a select, an
    integer product with no log/antilog gather.
    """
    c = np.asarray(coeffs, dtype=np.int64)
    mul = np.multiply if c.max(initial=0) <= 1 else ctx.mulv
    out = np.zeros(c.shape, dtype=np.int64)
    for i in range(ctx.n):
        out ^= mul(c[..., i, None], ctx.frobenius_basis[i])
    return out


def image_tables(images):
    """The two value tables of each map with L_s(e_j) = images[s, j]: over the
    low h = ceil(n/2) bits of a point and over the rest, so that
    L_s(x) = low[s, x & (2^h - 1)] ^ high[s, x >> h].  2 * 2^h entries per
    map, in the narrowest unsigned dtype that fits n bits."""
    n = images.shape[-1]
    h = (n + 1) // 2
    images = images.astype(np.min_scalar_type((1 << n) - 1))
    return f2.expand_linear(images[:, :h]), f2.expand_linear(images[:, h:])


def apply_tables(tables, points):
    """out[s, ...] = L_s(points) from the image_tables of the maps: two gathers per (map, point) pair."""
    low, high = tables
    h = low.shape[1].bit_length() - 1
    points = np.asarray(points)
    return np.take(low, points & ((1 << h) - 1), axis=1) ^ np.take(high, points >> h, axis=1)


def apply_binary(ctx, masks, points):
    """out[s, ...] = L_s(points) = XOR over the set bits k of masks[s] of
    points^(2^k): 0/1 coefficient rows packed as int masks, bit k = c_k.

    L_mask(x) is bilinear in (mask, x), so the two half tables of
    image_tables are built over whichever side has fewer values and read
    with two gathers per (mask, point) pair.  With fewer masks than points
    they are each mask's tables over the low and high bits of a point.
    Otherwise they are each point's tables over the low h = ceil(n/2) and
    the high bits of a mask, doubled out of its n Frobenius images and
    stored as (2^h, points), so a mask's half reads one row.  Same dtype as
    apply_tables.
    """
    masks, points = np.asarray(masks), np.asarray(points)
    n = ctx.n
    if len(masks) < points.size:
        return apply_tables(mask_tables(ctx, masks), points)
    h, square = (n + 1) // 2, ctx.pow_table(2)
    frob = np.empty((n, points.size), dtype=np.min_scalar_type(ctx.order - 1))
    frob[0] = points.ravel()
    for k in range(1, n):
        frob[k] = square[frob[k - 1]]
    low, high = _doubled_rows(frob[:h]), _doubled_rows(frob[h:])
    out = np.take(low, masks & ((1 << h) - 1), axis=0) ^ np.take(high, masks >> h, axis=0)
    return out.reshape(masks.shape + points.shape)


def mask_tables(ctx, masks):
    """The image_tables of the maps whose 0/1 coefficients are packed in the int masks, bit k = c_k."""
    bits = (np.asarray(masks)[:, None] >> np.arange(ctx.n)) & 1
    return image_tables(basis_images(ctx, bits))


def _doubled_rows(images):
    """Row m = XOR of images[k] over the set bits k of m: f2.expand_linear along the first axis."""
    out = np.zeros((1 << len(images),) + images.shape[1:], dtype=images.dtype)
    for k, row in enumerate(images):
        out[1 << k : 2 << k] = out[: 1 << k] ^ row
    return out


def zero(ctx):
    return LinearizedPoly(ctx, [0] * ctx.n)


def identity(ctx):
    return LinearizedPoly(ctx, [1] + [0] * (ctx.n - 1))


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
