"""Vectorial Boolean functions over GF(2^n).

The 2^n-entry lookup table is the canonical form; the univariate
polynomial view is interpolated lazily and cached (idempotent fill, so a
concurrent first computation is harmless).  Boolean functions are
bit-packed ints.
"""

import numpy as np

from .errors import BadLut, ContextMismatch, ZeroDirection

# DDT-row block entries. is_apn_naive(x^3) ms, 2 cores, 2^12/14/16/18: n=10 5.7/4.5/5.6/9.7, n=12 91/62/62/76
DDT_BLOCK = 1 << 14


def _anf_degree(table, n):
    """Algebraic degree of a value table by the Moebius transform.

    The transform only XORs entries, so on n-bit values it transforms every
    coordinate function at once and yields the largest of their degrees.
    """
    anf = np.array(table)
    for i in range(n):
        halves = anf.reshape(-1, 2, 1 << i)
        halves[:, 1] ^= halves[:, 0]
    on = np.flatnonzero(anf)
    if on.size == 0:
        return 0
    return int(sum((on >> i) & 1 for i in range(n)).max())


class BooleanFunction:
    """Boolean function on GF(2^n), truth table packed into one int."""

    __slots__ = ("n", "bits")

    def __init__(self, n, bits):
        self.n = n
        self.bits = int(bits) & ((1 << (1 << n)) - 1)

    @classmethod
    def from_array(cls, n, arr):
        packed = np.packbits(np.asarray(arr, dtype=np.uint8), bitorder="little")
        return cls(n, int.from_bytes(packed.tobytes(), "little"))

    def bit(self, x):
        return (self.bits >> x) & 1

    def weight(self):
        return self.bits.bit_count()

    def to_array(self):
        size = 1 << self.n
        raw = self.bits.to_bytes((size + 7) // 8, "little")
        return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")[:size]

    def to_signs(self):
        """(-1)^f(x) as an int64 array."""
        return 1 - 2 * self.to_array().astype(np.int64)

    def derivative(self, a):
        if a == 0:
            raise ZeroDirection("derivative direction must be nonzero")
        arr = self.to_array()
        idx = np.arange(1 << self.n) ^ a
        return BooleanFunction.from_array(self.n, arr[idx] ^ arr)

    def algebraic_degree(self):
        """Degree of the multivariate normal form (Moebius transform)."""
        return _anf_degree(self.to_array(), self.n)

    def __xor__(self, other):
        return BooleanFunction(self.n, self.bits ^ other.bits)

    def __eq__(self, other):
        return (
            isinstance(other, BooleanFunction)
            and self.n == other.n
            and self.bits == other.bits
        )

    def __hash__(self):
        return hash((self.n, self.bits))

    def __repr__(self):
        return f"BooleanFunction(n={self.n}, weight={self.weight()})"


class UnivariatePoly:
    """Sparse univariate polynomial sum delta_j x^j, exponents < 2^n."""

    def __init__(self, ctx, coeffs):
        self.ctx = ctx
        self.coeffs = {int(j): int(d) for j, d in coeffs.items() if d}
        for j in self.coeffs:
            if not 0 <= j < ctx.order:
                raise ValueError(f"exponent {j} out of range for n={ctx.n}")

    def evaluate(self, x):
        acc = 0
        for j, d in self.coeffs.items():
            acc ^= self.ctx.mul(d, self.ctx.pow(x, j))
        return acc

    def to_text(self):
        if not self.coeffs:
            return "0"
        terms = []
        for j in sorted(self.coeffs, reverse=True):
            d = self.coeffs[j]
            if j == 0:
                terms.append(f"0x{d:x}")
            elif d == 1:
                terms.append(f"x^{j}")
            else:
                terms.append(f"0x{d:x}*x^{j}")
        return " + ".join(terms)

    def __eq__(self, other):
        return (
            isinstance(other, UnivariatePoly)
            and self.ctx.same_as(other.ctx)
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"UnivariatePoly({self.to_text()})"


class VBF:
    """Vectorial Boolean function as an immutable lookup table."""

    def __init__(self, ctx, lut):
        try:
            lut = np.asarray(lut, dtype=np.int64)
        except OverflowError:
            raise BadLut(f"LUT entries must lie in [0, {ctx.order})") from None
        if lut.shape != (ctx.order,):
            raise BadLut(f"LUT must have {ctx.order} entries, got shape {lut.shape}")
        if lut.min() < 0 or lut.max() >= ctx.order:
            raise BadLut(f"LUT entries must lie in [0, {ctx.order})")
        self.ctx = ctx
        self.lut = lut.copy()
        self.lut.setflags(write=False)
        self._uni = None
        self._degree = None

    def __call__(self, x):
        return int(self.lut[x])

    def __add__(self, other):
        if isinstance(other, BooleanFunction):
            return self.add_boolean(other)
        if not self.ctx.same_as(other.ctx):
            raise ContextMismatch("VBF addition across different contexts")
        return VBF(self.ctx, self.lut ^ other.lut)

    def add_boolean(self, f):
        """Pointwise F(x) + f(x), the bit embedded as the field element 1."""
        return VBF(self.ctx, self.lut ^ f.to_array().astype(np.int64))

    def __eq__(self, other):
        return (
            isinstance(other, VBF)
            and self.ctx.same_as(other.ctx)
            and bool(np.array_equal(self.lut, other.lut))
        )

    def __hash__(self):
        return hash((self.ctx.n, self.ctx.modulus, self.lut.tobytes()))

    def component(self, lam):
        """Boolean component x -> Tr(lam * F(x))."""
        bits = self.ctx.trace_table()[self.ctx.mulcv(lam, self.lut)]
        return BooleanFunction.from_array(self.ctx.n, bits)

    def derivative(self, a):
        if a == 0:
            raise ZeroDirection("derivative direction must be nonzero")
        idx = np.arange(self.ctx.order) ^ a
        return VBF(self.ctx, self.lut[idx] ^ self.lut)

    def to_univariate(self):
        if self._uni is None:
            self._uni = _interpolate(self)
        return self._uni

    def algebraic_degree(self):
        """Max binary weight over exponents with nonzero coefficient (0 for constants)."""
        if self._degree is None:
            self._degree = _anf_degree(self.lut, self.ctx.n)
        return self._degree

    def __repr__(self):
        return f"VBF(n={self.ctx.n})"


class Form1:
    """Quadratic family F(x) = L1(x^3) + L2(x^9)."""

    def __init__(self, L1, L2):
        if not L1.ctx.same_as(L2.ctx):
            raise ContextMismatch("L1 and L2 must share a field context")
        self.L1 = L1
        self.L2 = L2
        self.ctx = L1.ctx

    def __call__(self, x):
        """F(x) at one point, without the lookup table of realize."""
        ctx = self.ctx
        return self.L1.eval(ctx.pow(x, 3)) ^ self.L2.eval(ctx.pow(x, 9))

    def realize(self):
        ctx = self.ctx
        cube = ctx.pow_table(3)
        ninth = ctx.pow_table(9)
        return VBF(ctx, self.L1.lut()[cube] ^ self.L2.lut()[ninth])

    def __repr__(self):
        return f"Form1(L1={self.L1.to_text()}, L2={self.L2.to_text()})"


def ddt_row_blocks(F):
    """Yield (a0, C) over the DDT rows a = 1 .. 2^n - 1, a block at a time.

    F is a VBF or an array of LUTs with leading batch axes, which C keeps in
    front: C[..., i, b] = #{x : F(x + a0 + i) + F(x) = b}.  A block holds
    about DDT_BLOCK entries (one row of every LUT at least) and is counted by
    one bincount: the values of each row of each LUT are tagged with their own
    multiple of 2^n, which the XOR with F(x) carries in the bits above n.
    """
    luts = F.lut if isinstance(F, VBF) else np.asarray(F)
    order = luts.shape[-1]
    rows = max(1, DDT_BLOCK // luts.size)
    idx = np.arange(order)
    tags = np.arange(luts.size // order * rows).reshape(luts.shape[:-1] + (rows, 1))
    tagged = luts[..., None, :] + tags * order
    for a0 in range(1, order, rows):
        a = np.arange(a0, min(a0 + rows, order))
        vals = np.take(luts, a[:, None] ^ idx, axis=-1) ^ tagged[..., : len(a), :]
        C = np.bincount(vals.ravel(), minlength=tagged.size).reshape(tagged.shape)
        yield a0, C[..., : len(a), :]


def bilinear_table(luts, points):
    """W[..., i, j] = F(x_i+e_j)+F(x_i)+F(e_j)+F(0) for each LUT F in a batch.

    luts has shape (..., 2^n) and points holds the x_i.  For quadratic F this
    is the symmetric biadditive form phi(x_i, e_j) attached to F.
    """
    luts = np.asarray(luts)
    basis = 1 << np.arange(luts.shape[-1].bit_length() - 1, dtype=np.int64)
    pts = np.asarray(points, dtype=np.int64)
    ends = luts[..., pts, None] ^ luts[..., None, basis] ^ luts[..., :1, None]
    return luts[..., pts[:, None] ^ basis] ^ ends


def gram_elements(F: VBF):
    """The (n, n) Gram table phi(e_i, e_j) of F: its bilinear table at the basis."""
    return bilinear_table(F.lut, 1 << np.arange(F.ctx.n, dtype=np.int64))


def deriv_basis_table(F: VBF):
    """W[a, j] = F(a+e_j)+F(a)+F(e_j)+F(0) for every a (shape (2^n, n))."""
    return bilinear_table(F.lut, np.arange(F.ctx.order, dtype=np.int64))


def power_map(ctx, d):
    """The monomial x^d as a VBF."""
    return VBF(ctx, ctx.pow_table(d))


def from_univariate(p: UnivariatePoly):
    ctx = p.ctx
    N = ctx.mult_order
    lut = np.zeros(ctx.order, dtype=np.int64)
    pts = ctx.antilog_table[:N]
    logs = np.arange(N, dtype=np.int64)
    for j, d in p.coeffs.items():
        if j == 0:
            lut ^= d
        else:
            ld = int(ctx.log_table[d])
            lut[pts] ^= ctx.antilog_table[(ld + logs * j) % N]
    return VBF(ctx, lut)


def _interpolate(F: VBF):
    """Coefficients delta_j with F(x) = sum delta_j x^j, exponents 0..2^n-1."""
    ctx = F.ctx
    N = ctx.mult_order
    pts = ctx.antilog_table[:N]
    G = F.lut[pts]
    lg = ctx.log_table[G]  # sentinel for zeros makes products vanish
    i_idx = np.arange(N, dtype=np.int64)
    coeffs = {0: int(F.lut[0])}
    chunk = max(1, (1 << 22) // max(N, 1))
    for start in range(1, N, chunk):
        ms = np.arange(start, min(start + chunk, N), dtype=np.int64)
        expo = (-np.outer(ms, i_idx)) % N
        vals = ctx.antilog_table[lg[None, :] + expo]
        deltas = np.bitwise_xor.reduce(vals, axis=1)
        for m, d in zip(ms, deltas):
            if d:
                coeffs[int(m)] = int(d)
    dN = int(F.lut[0]) ^ int(np.bitwise_xor.reduce(G))
    if dN:
        coeffs[N] = dN
    return UnivariatePoly(ctx, coeffs)


def save_lut(F: VBF, path):
    """One hex element per line, line index = input x."""
    with open(path, "w") as fh:
        for v in F.lut:
            fh.write(format(int(v), "x") + "\n")


def load_lut(ctx, path):
    """Read a save_lut file; a line that is not a field element raises BadLut."""
    vals = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if text := line.strip():
                try:
                    vals.append(int(text, 16))
                except ValueError:
                    vals.append(-1)
                if not 0 <= vals[-1] < ctx.order:
                    raise BadLut(f"{path}:{lineno}: {text!r} is not a hex element of GF(2^{ctx.n})")
    return VBF(ctx, vals)
