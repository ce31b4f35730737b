"""GF(2^n) arithmetic contexts, 2 <= n <= 20.

Elements are plain ints: bit j is the coefficient of alpha^j in the
polynomial basis.  A :class:`FieldCtx` carries the modulus and eagerly
built log/antilog tables, so multiplication is two lookups.  Contexts are
immutable after construction and safe to share across workers.
"""

from array import array
from functools import cached_property, lru_cache

import numpy as np

from . import f2
from .conway import CONWAY_GF2, is_irreducible_poly, poly_mulmod, poly_powmod, prime_factors
from .errors import (
    DivisionByZero,
    InternalCheckFailed,
    NotADivisor,
    ReducibleModulus,
    UnsupportedDegree,
)

MIN_DEGREE = 2
MAX_DEGREE = 20


class FieldCtx:
    """Arithmetic context for GF(2^n) with a fixed primitive element.

    The antilog table is over-extended so that the sentinel log value of
    zero (``2*(2^n-1)``) makes table-driven products of zero operands come
    out as zero without branching; this is what makes the numpy vector
    helpers (`mulv`, `mulcv`, `pow_table`) total functions.
    """

    def __init__(self, n, modulus=None):
        if not MIN_DEGREE <= n <= MAX_DEGREE:
            raise UnsupportedDegree(f"extension degree {n} outside [{MIN_DEGREE}, {MAX_DEGREE}]")
        if modulus is None:
            modulus = CONWAY_GF2[n]
        if modulus >> n != 1:
            raise ReducibleModulus(f"modulus 0x{modulus:X} does not have degree exactly {n}")
        if not is_irreducible_poly(modulus, n):
            raise ReducibleModulus(f"0x{modulus:X} factors over GF(2)")
        self.n = n
        self.modulus = modulus
        self.order = 1 << n
        self.mult_order = self.order - 1
        self.k = self.mult_order // 3 if n % 2 == 0 else None

        self._build_tables()
        self._trace_bits = f2.expand_linear(
            np.array([self._trace_slow(1 << j) for j in range(n)], dtype=np.uint8)
        )
        self._pow_cache = {}
        self._trace_masks = None

    # -- construction ---------------------------------------------------

    def _build_tables(self):
        n, order, N = self.n, self.order, self.mult_order
        exp_seq = [0] * N
        x = 1
        for i in range(N):
            exp_seq[i] = x
            x <<= 1
            if x & order:
                x ^= self.modulus
        if x == 1 and len(set(exp_seq)) == N:
            self.alpha = 2
        else:
            # x is not primitive for this modulus: fall back to the smallest
            # generator and rebuild the cycle.
            self.alpha = self._find_generator()
            exp_seq = [0] * N
            y = 1
            for i in range(N):
                exp_seq[i] = y
                y = poly_mulmod(y, self.alpha, self.modulus, n)

        log_zero = 2 * N
        log = np.full(order, log_zero, dtype=np.int64)
        exp = np.zeros(4 * N + 1, dtype=np.int64)
        for i, v in enumerate(exp_seq):
            log[v] = i
            exp[i] = v
            exp[i + N] = v
        self.log_table = log
        self.antilog_table = exp
        # compact copies for the scalar operations, whose indexing is cheaper than numpy's
        self._log = array("q", log.tobytes())
        self._exp = array("q", exp[: 2 * N].tobytes())

    def _find_generator(self):
        N = self.mult_order
        qs = prime_factors(N)
        for g in range(2, self.order):
            if all(poly_powmod(g, N // q, self.modulus, self.n) != 1 for q in qs):
                return g
        raise ReducibleModulus(f"0x{self.modulus:X} admits no generator")  # pragma: no cover

    def _trace_slow(self, x):
        acc, t = 0, x
        for _ in range(self.n):
            acc ^= t
            t = poly_mulmod(t, t, self.modulus, self.n)
        return acc  # 0 or 1 once the sum telescopes

    # -- scalar operations ------------------------------------------------

    def add(self, a, b):
        return a ^ b

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of 0")
        return self._exp[self.mult_order - self._log[a]]

    def pow(self, a, e):
        """a**e with exponents taken mod 2^n-1 for nonzero a; pow(0,0) == 1."""
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise DivisionByZero("negative power of 0")
            return 0
        return self._exp[(self._log[a] * e) % self.mult_order]

    def alpha_pow(self, e):
        return int(self.antilog_table[e % self.mult_order])

    def dlog(self, a):
        if a == 0:
            raise DivisionByZero("discrete log of 0")
        return int(self.log_table[a])

    def trace(self, x):
        return int(self._trace_bits[x])

    def rel_trace(self, m, x):
        """Trace onto the subfield GF(2^m); requires m | n."""
        if m <= 0 or self.n % m:
            raise NotADivisor(f"{m} does not divide {self.n}")
        acc, t = 0, x
        for _ in range(self.n // m):
            acc ^= t
            t = self.pow(t, 1 << m)
        if self.pow(acc, 1 << m) != acc:
            raise InternalCheckFailed("relative trace left the subfield")
        return acc

    def is_cube(self, x):
        if x == 0:
            return True
        if self.n % 2:
            return True
        return int(self.log_table[x]) % 3 == 0

    def cube_roots(self, x):
        """All y with y^3 == x, ascending."""
        if x == 0:
            return [0]
        N = self.mult_order
        e = int(self.log_table[x])
        if self.n % 2:
            inv3 = pow(3, -1, N)
            return [int(self.antilog_table[(e * inv3) % N])]
        if e % 3:
            return []
        r = e // 3
        k = self.k
        return sorted(int(self.antilog_table[(r + j * k) % N]) for j in range(3))

    # -- vector helpers (numpy) -------------------------------------------

    def mulv(self, a, b):
        """Elementwise product of two element arrays."""
        return self.antilog_table[self.log_table[a] + self.log_table[b]]

    def mulcv(self, c, arr):
        """Product of a scalar element with an element array."""
        if c == 0:
            return np.zeros_like(arr)
        return self.antilog_table[int(self.log_table[c]) + self.log_table[arr]]

    def invv(self, arr):
        """Elementwise inverse of a nonzero element array."""
        N = self.mult_order
        return self.antilog_table[(N - self.log_table[arr]) % N]

    def rel_tracev(self, m, arr):
        """Elementwise trace onto the subfield GF(2^m); requires m | n."""
        if m <= 0 or self.n % m:
            raise NotADivisor(f"{m} does not divide {self.n}")
        out = arr.copy()
        t = arr
        step = self.pow_table(1 << m)
        for _ in range(self.n // m - 1):
            t = step[t]
            out = out ^ t
        return out

    def pow_table(self, d):
        """LUT of x -> x^d over the whole field (cached)."""
        t = self._pow_cache.get(d)
        if t is None:
            t = np.zeros(self.order, dtype=np.int64)
            if d == 0:
                t[:] = 1  # includes pow(0, 0) == 1
            else:
                nz = np.arange(1, self.order)
                t[nz] = self.antilog_table[(self.log_table[nz] * d) % self.mult_order]
            t.setflags(write=False)
            self._pow_cache[d] = t
        return t

    @cached_property
    def frobenius_basis(self):
        """(n, n) table with [i, j] = e_j^(2^i) for the polynomial basis e_j = 2^j."""
        logs = self.log_table[1 << np.arange(self.n)] << np.arange(self.n)[:, None]
        return self.antilog_table[logs % self.mult_order]

    def trace_table(self):
        return self._trace_bits

    def trace_masks(self):
        """T[w] = bit mask with bit t = Tr(e_t * w).

        Converts trace conditions into plain bit equations: Tr(x*w) equals
        parity(bits(x) & T[w]) for all x, w.  w -> T[w] is F2-linear, so T
        is doubled out of the n masks T[e_j].
        """
        if self._trace_masks is None:
            n = self.n
            basis = [sum(self.trace(self.mul(1 << t, 1 << j)) << t for t in range(n)) for j in range(n)]
            masks = f2.expand_linear(np.array(basis, dtype=np.int64))
            masks.setflags(write=False)
            self._trace_masks = masks
        return self._trace_masks

    def trace_forms(self, values):
        """out[..., lam] = sum_j Tr(lam * values[..., j]) 2^j for every lam, in the narrowest
        unsigned dtype: lam -> Tr(lam * v) is F2-linear and sends e_t to bit t of T[v]."""
        rows = f2.transpose(self.trace_masks()[values], self.n)
        return f2.expand_linear(rows.astype(np.min_scalar_type((1 << np.shape(values)[-1]) - 1)))

    def elements(self):
        return np.arange(self.order, dtype=np.int64)

    def trace_zero_nonzero(self):
        """All nonzero x with trace 0, ascending."""
        xs = np.nonzero(self._trace_bits == 0)[0]
        return xs[xs != 0].astype(np.int64)

    # -- misc ---------------------------------------------------------------

    def same_as(self, other):
        return self.n == other.n and self.modulus == other.modulus

    def __repr__(self):
        return f"FieldCtx(n={self.n}, modulus=0x{self.modulus:X}, alpha=0x{self.alpha:X})"


@lru_cache(maxsize=None)
def _cached_ctx(n, modulus):
    return FieldCtx(n, modulus)


def mk_field(n, modulus=None):
    """Build (or fetch a cached) GF(2^n) context.

    Without an explicit modulus the embedded Conway polynomial for degree n
    is used, which pins down the primitive element alpha that all published
    representative coefficients refer to.
    """
    if not isinstance(n, int):
        raise UnsupportedDegree(f"degree must be an int, got {n!r}")
    if modulus is None:
        if not MIN_DEGREE <= n <= MAX_DEGREE:
            raise UnsupportedDegree(f"extension degree {n} outside [{MIN_DEGREE}, {MAX_DEGREE}]")
        modulus = CONWAY_GF2[n]
    return _cached_ctx(n, modulus)


def parse_field_spec(spec):
    """Parse ``n=<int>[,mod=0x<hex>]`` into a FieldCtx."""
    parts = [p.strip() for p in spec.split(",") if p.strip()]
    n = None
    modulus = None
    for p in parts:
        key, _, val = p.partition("=")
        key = key.strip().lower()
        if key not in ("n", "mod"):
            raise UnsupportedDegree(f"unknown field spec key {key!r} in {spec!r}")
        try:
            value = int(val, 16 if key == "mod" else 10)
        except ValueError:
            raise UnsupportedDegree(f"bad value {val!r} for {key!r} in {spec!r}") from None
        if key == "n":
            n = value
        else:
            modulus = value
    if n is None:
        raise UnsupportedDegree(f"field spec {spec!r} lacks n=<int>")
    return mk_field(n, modulus)
