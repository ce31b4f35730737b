"""Reference mathematics for the benchmark's checks, written apart from apn_forge.

Nothing here imports apn_forge.  Field elements are ints whose bit j is the
coefficient of x^j; products are carry-less products reduced modulo the
Conway polynomial of the degree, so x is the primitive element, as in the
published coefficient lists.  All routines work on numpy arrays so that a
whole scan can be re-decided after the timed rounds.
"""

import random

import numpy as np

# Conway polynomials over GF(2): bit j is the coefficient of x^j.
CONWAY = {
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x5B,
    7: 0x83,
    8: 0x11D,
    9: 0x211,
    10: 0x46F,
    11: 0x805,
    12: 0x10EB,
    13: 0x201B,
}

# Value tables hold elements of GF(2^n) with n <= 13; 16 bits halve the
# memory traffic of the gathers against 32.
TABLE_DTYPE = np.int16
# Largest array (in elements) one step of the full differential count builds.
_STEP_ELEMENTS = 1 << 22
# Directions the refuting pass tries before the full count takes over.
_REFUTE_DIRECTIONS = 64


class Field:
    """GF(2^n) on the polynomial basis modulo the embedded Conway polynomial."""

    def __init__(self, n):
        self.n = n
        self.modulus = CONWAY[n]
        self.order = 1 << n
        self.elements = np.arange(self.order, dtype=np.int64)
        self._trace = None
        self._products = None
        self.cube = self.power(self.elements, 3)
        self.ninth = self.power(self.elements, 9)

    def mul(self, a, b):
        """Elementwise carry-less product of a and b reduced mod the modulus."""
        a, b = np.broadcast_arrays(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))
        a = a.copy()
        r = np.zeros(a.shape, dtype=np.int64)
        for bit in range(self.n):
            r ^= a & -((b >> bit) & 1)
            a <<= 1
            a ^= self.modulus & -((a >> self.n) & 1)
        return r

    def power(self, a, e):
        """Elementwise a**e by square and multiply (0**0 == 1)."""
        base = np.asarray(a, dtype=np.int64)
        r = np.ones(base.shape, dtype=np.int64)
        while e:
            if e & 1:
                r = self.mul(r, base)
            base = self.mul(base, base)
            e >>= 1
        return r

    def trace(self):
        """Table of Tr(y) = y + y^2 + ... + y^(2^(n-1)) for every y."""
        if self._trace is None:
            acc = self.elements.copy()
            t = self.elements
            for _ in range(self.n - 1):
                t = self.mul(t, t)
                acc ^= t
            if not np.all((acc == 0) | (acc == 1)):
                raise ArithmeticError("trace left the prime field")
            self._trace = acc
        return self._trace

    def products(self):
        """P[lam - 1, y] = lam * y for lam != 0."""
        if self._products is None:
            self._products = self.mul(self.elements[1:, None], self.elements[None, :])
        return self._products


def span_tables(images, order):
    """Tables of the F2-linear maps sending e_j to images[:, j], one row per map."""
    images = np.atleast_2d(np.asarray(images)).astype(TABLE_DTYPE)
    tables = np.zeros((len(images), order), dtype=TABLE_DTYPE)
    size = 1
    for j in range(images.shape[1]):
        tables[:, size : 2 * size] = tables[:, :size] ^ images[:, j : j + 1]
        size <<= 1
    return tables


def linear_tables(field, coeffs):
    """Value tables of L(y) = sum_i c_i y^(2^i), one row per coefficient row.

    L is additive, so its table follows from its images of the basis.
    """
    n = field.n
    coeffs = np.asarray(coeffs, dtype=np.int64).reshape(-1, n)
    basis = 1 << np.arange(n, dtype=np.int64)
    frob = np.stack([field.power(basis, 1 << i) for i in range(n)])  # frob[i, j] = e_j^(2^i)
    images = np.bitwise_xor.reduce(field.mul(coeffs[:, :, None], frob[None, :, :]), axis=1)
    return span_tables(images, field.order)


def form1_tables(field, l1, l2):
    """Value tables of F(x) = L1(x^3) + L2(x^9), one row per (L1, L2) row."""
    l1 = np.take(linear_tables(field, l1), field.cube, axis=1)
    return l1 ^ np.take(linear_tables(field, l2), field.ninth, axis=1)


def is_apn(tables):
    """APN flag per row, by counting solutions of F(x+a) + F(x) = b.

    Two passes over directions taken in a fixed shuffled order (the
    low-weight directions refute structured maps late):

    - refute: for every function, b = F(a) + F(0) is reached by x = 0 and
      x = a, so a third solution of it refutes the row.  This drops most
      non-APN rows within a few directions.
    - count: the rows left get the full count over every direction and
      every b, and are dropped at the first count above 2.
    """
    tables = np.atleast_2d(np.asarray(tables, dtype=TABLE_DTYPE))
    rows, order = tables.shape
    xs = np.arange(order, dtype=np.int64)
    dirs = 1 + np.random.default_rng(0).permutation(order - 1)
    alive = np.ones(rows, dtype=bool)
    for a in dirs[:_REFUTE_DIRECTIONS]:
        live = np.nonzero(alive)[0]
        if not len(live):
            break
        T = tables[live]
        target = (T[:, a] ^ T[:, 0])[:, None]
        solutions = ((T[:, xs ^ a] ^ T) == target).sum(axis=1)
        alive[live[solutions > 2]] = False
    block = max(1, _STEP_ELEMENTS // order)
    for r in np.nonzero(alive)[0]:
        row = tables[r]
        for lo in range(0, order - 1, block):
            d = dirs[lo : lo + block]
            D = (row[xs[None, :] ^ d[:, None]] ^ row[None, :]).astype(np.int64)
            keys = np.arange(len(d), dtype=np.int64)[:, None] * order + D
            if np.bincount(keys.ravel(), minlength=D.size).max() > 2:
                alive[r] = False
                break
    return alive


def diff_spectrum(table):
    """{count: multiplicity} of #{x : F(x+a) + F(x) = b} over a != 0 and all b."""
    table = np.asarray(table, dtype=np.int64)
    order = len(table)
    xs = np.arange(order, dtype=np.int64)
    D = table[xs[None, :] ^ xs[1:, None]] ^ table[None, :]
    keys = np.arange(order - 1, dtype=np.int64)[:, None] * order + D
    counts = np.bincount(keys.ravel(), minlength=(order - 1) * order)
    values, mult = np.unique(counts, return_counts=True)
    return {int(v): int(m) for v, m in zip(values, mult)}


def walsh(signs):
    """Unnormalised Walsh-Hadamard transform along the last axis."""
    w = np.array(signs, dtype=np.int64)
    size = w.shape[-1]
    h = 1
    while h < size:
        w = w.reshape(w.shape[:-1] + (size // (2 * h), 2, h))
        lo, hi = w[..., 0, :].copy(), w[..., 1, :].copy()
        w[..., 0, :] = lo + hi
        w[..., 1, :] = lo - hi
        w = w.reshape(w.shape[:-3] + (size,))
        h *= 2
    return w


def component_walsh(field, table):
    """W[lam - 1, u] = sum_x (-1)^(Tr(lam F(x)) + u.x) for every lam != 0."""
    bits = field.trace()[field.products()[:, np.asarray(table, dtype=np.int64)]]
    return walsh(1 - 2 * bits)


def ext_walsh(field, table):
    """{|W|: multiplicity} over every component lam != 0 and every u."""
    values, mult = np.unique(np.abs(component_walsh(field, table)), return_counts=True)
    return {int(v): int(m) for v, m in zip(values, mult)}


def bent_count(field, table):
    """Number of components lam != 0 whose Walsh values all have |W| = 2^(n/2)."""
    if field.n % 2:
        return 0
    W = np.abs(component_walsh(field, table))
    return int((W == 1 << (field.n // 2)).all(axis=1).sum())


# -- reference sampler ---------------------------------------------------------

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix64(z):
    z = ((z ^ (z >> 30)) * _MIX1) & _M64
    z = ((z ^ (z >> 27)) * _MIX2) & _M64
    return z ^ (z >> 31)


def sample(seed, index, count, order):
    """The count field elements the seeded jobs draw for one candidate index.

    This is the documented counter-based generator keyed by (seed, index),
    re-derived in plain integer arithmetic modulo 2^64.
    """
    stream = _mix64((seed + index * _GOLDEN) & _M64)
    return [_mix64((stream + k * _GOLDEN) & _M64) & (order - 1) for k in range(1, count + 1)]


# -- F2-linear maps and EA transforms ------------------------------------------


def f2_rank(rows):
    rank, rows = 0, [int(r) for r in rows]
    while rows:
        pivot = rows.pop()
        if pivot:
            rank += 1
            low = pivot & -pivot
            rows = [r ^ pivot if r & low else r for r in rows]
    return rank


def random_linear_permutation(n, rng: random.Random):
    while True:
        images = [rng.randrange(1 << n) for _ in range(n)]
        if f2_rank(images) == n:
            return span_tables(images, 1 << n)[0]


def random_ea_transform(n, table, rng: random.Random):
    """M1(F(M2(x) + c)) + MA(x) + d with M1, M2 invertible, d fixing G(0) = F(0).

    Keeping the value at 0 keeps the normalisation F(0) = 0 under which the
    ortho-derivative of a quadratic APN function is defined.
    """
    table = np.asarray(table, dtype=TABLE_DTYPE)
    outer = random_linear_permutation(n, rng)
    inner = random_linear_permutation(n, rng)
    added = span_tables([rng.randrange(1 << n) for _ in range(n)], 1 << n)[0]
    shift = rng.randrange(1 << n)
    G = outer[table[inner ^ shift]] ^ added
    return G ^ G[0] ^ table[0]
