"""APN tests, quick-reject filters, permutation criteria and constructions.

The ground-truth oracle is the naive differential count
(:func:`is_apn_naive`).  Faster routes exist for quadratic functions and
for the L1(x^3)+L2(x^9) family, whose derivative structure depends on the
direction a only through a^3: on even dimensions those tests walk one
representative per cube coset, a third of the space.

Every negative :class:`ApnVerdict` carries a materialized witness
(a, b, xs) with at least four solutions to F(x+a)+F(x)=b, re-verified
against the function before it is returned: a Form1 is read one point at a
time, with no lookup table.  Search verdicts carry no witness: the batched
scans (:func:`form1_rank_scan` and the filter scans) take B coefficient rows
and return, per row, only the index of the first representative that
refutes it.  Every Form1 route is one walk (:func:`_first_bad`) of
L1(v p) + L2(v^3 q) at the representatives v: the rank test at the n - 1
live basis points (p, q) = (u2, u8), Lemma 1 and the t-condition at
(y, y^4+y^2+y) for every nonzero trace-zero y, and the nonzero and beta
filters as Lemma 1 at y = 1 and y = beta.  The scans take either 2-D
coefficient rows or 1-D int masks of 0/1 rows (bit k = c_k); binary rows
go through the walk as masks (linmap.apply_binary), in one slice.
"""

import math
from dataclasses import dataclass
from functools import cache
from typing import Optional

import numpy as np

from . import f2, linmap
from .errors import (
    BadDimension,
    DimensionTooSmall,
    InternalCheckFailed,
    NonBinaryCoefficients,
    NotQuadratic,
    OddDimension,
    PreconditionViolated,
    ZeroA,
)
from .linmap import LinearizedPoly
from .vbf import DDT_BLOCK, VBF, BooleanFunction, Form1, bilinear_table, ddt_row_blocks

_CHUNK = 4096

# Rows per slice of coefficient rows, and (row, index) pairs per block of the
# rank walk after its first.  A slice of rows carries the value tables of its
# rows (2 * 2^ceil(n/2) entries each), so the slice bounds that memory; masks
# carry no tables and walk as one slice.
WALK_PAIRS = 2048


@dataclass
class Witness:
    a: int
    b: int
    xs: tuple

    def verifies(self, F):
        if len(self.xs) < 4 or len(set(self.xs)) != len(self.xs):
            return False
        return all(F(x ^ self.a) ^ F(x) == self.b for x in self.xs)


@dataclass
class ApnVerdict:
    is_apn: bool
    witness: Optional[Witness]
    method: str

    def __bool__(self):
        return self.is_apn

    def as_dict(self):
        w = None
        if self.witness is not None:
            w = {"a": self.witness.a, "b": self.witness.b, "xs": list(self.witness.xs)}
        return {"is_apn": self.is_apn, "method": self.method, "witness": w}


@dataclass
class RejectWitness:
    stage: str
    data: dict


class Ddt:
    """Differential distribution table: table[a][b] = #{x : F(x+a)+F(x) = b}."""

    def __init__(self, F: VBF):
        row0 = np.eye(1, F.ctx.order, dtype=np.int64) * F.ctx.order
        self.table = np.concatenate([row0] + [C for _, C in ddt_row_blocks(F)])


def _checked(F, w: Witness):
    if not w.verifies(F):
        raise InternalCheckFailed(f"witness at a={w.a}, b={w.b} failed re-verification")
    return w


def _mk_witness(F, a, extra_x):
    """Witness from one extra kernel element of the derivative at a; F is a
    VBF or a Form1, read one point at a time."""
    b = F(a) ^ F(0)
    xs = tuple(sorted({0, a, extra_x, extra_x ^ a}))
    return _checked(F, Witness(a=a, b=b, xs=xs))


def is_apn_naive(F: VBF) -> ApnVerdict:
    """Blocked differential count with early abort; the reference oracle."""
    for a0, C in ddt_row_blocks(F):
        bad = np.nonzero(C.max(axis=1) > 2)[0]
        if bad.size:
            a = a0 + int(bad[0])
            b = int(np.argmax(C[bad[0]]))
            xs = tuple(int(x) for x in np.nonzero(F.derivative(a).lut == b)[0])
            return ApnVerdict(False, _checked(F, Witness(a=a, b=b, xs=xs)), "naive")
    return ApnVerdict(True, None, "naive")


def batch_is_apn_naive(luts):
    """Per LUT of a batch (shape (B, 2^n)), whether it is APN by the
    differential count of is_apn_naive; no witness, no early exit.  About
    DDT_BLOCK entries of LUTs go to ddt_row_blocks at a time."""
    luts = np.asarray(luts)
    ok = np.ones(len(luts), dtype=bool)
    step = max(1, DDT_BLOCK // luts.shape[-1])
    for lo in range(0, len(luts), step):
        part = ok[lo : lo + step]
        for _, C in ddt_row_blocks(luts[lo : lo + step]):
            part &= C.max(axis=(-2, -1)) <= 2
    return ok


@cache
def _coset_reps(ctx):
    """Arrays (a_values, v_values) with v = a^3 covering all distinct cubes (cached: read only)."""
    N = ctx.mult_order
    if ctx.n % 2 == 0:
        js = np.arange(ctx.k, dtype=np.int64)
        return ctx.antilog_table[js], ctx.antilog_table[(3 * js) % N]
    a = np.arange(1, ctx.order, dtype=np.int64)
    return a, ctx.pow_table(3)[a]


@cache
def _x2_plus_x_roots(ctx):
    """R[y] = a root of x^2 + x = y, or -1; roots x and x + 1 give the same witness."""
    roots = np.full(ctx.order, -1, dtype=np.int64)
    roots[ctx.pow_table(2) ^ ctx.elements()] = ctx.elements()
    return roots


def _form1_cols(ctx, m1, m2, vs, p, q):
    """cols[s, i, j] = L1(v_i p_j) + L2(v_i^3 q_j) for each row pair.  At
    (p, q) = (u2, u8) these are the linearized derivative at a with a^3 = v_i,
    on the basis e_1 .. e_(n-1), rescaled by a; at (y, y^4+y^2+y) they are
    Lemma 1's values.  p and q come as their ctx.log_table entries (that of 0
    makes products 0), so a block gathers no logs of its points.

    m1 and m2 hold the L1 and the L2 maps either as 1-D int arrays of packed
    0/1 coefficients, which linmap.apply_binary reads from tables over the
    fewer of the block's rows and points, or as their linmap.image_tables.
    m2 may hold one map shared by every row of m1: its term broadcasts."""
    vs = np.asarray(vs)[:, None]
    exp, log = ctx.antilog_table, ctx.log_table
    return _apply(ctx, m1, exp[log[vs] + p]) ^ _apply(ctx, m2, exp[log[ctx.pow_table(3)[vs]] + q])


def _apply(ctx, m, points):
    """out[s, ...] = L_s(points) for the maps m of _form1_cols: masks or image tables."""
    return linmap.apply_binary(ctx, m, points) if isinstance(m, np.ndarray) else linmap.apply_tables(m, points)


def _rows(m, keep):
    """The rows keep of m: an array of coefficient masks or a pair of image tables."""
    return m[keep] if isinstance(m, np.ndarray) else (m[0][keep], m[1][keep])


def _rank_test(ctx):
    """The rank test as a walk's (p, q, bad, pairs): the columns at
    u2[j] = e_j^2+e_j and u8[j] = e_j^8+e_j for the n - 1 live basis points
    e_1 .. e_(n-1) (u2 and u8 vanish at e_0 = 1, so that column is always 0),
    bad where their rank is not n - 1, at most WALK_PAIRS pairs a block.  The
    pivots of f2._pivots have strictly falling leading bits, so n - 1 columns
    have full rank exactly when the last of their n - 1 pivots is nonzero."""
    n, e = ctx.n, 1 << np.arange(1, ctx.n, dtype=np.int64)

    def bad(cols):
        for last in f2._pivots(cols.reshape(-1, n - 1), n):
            pass
        return (last == 0).reshape(cols.shape[:2])

    u2, u8 = (ctx.pow_table(d)[e] ^ e for d in (2, 8))
    return ctx.log_table[u2], ctx.log_table[u8], bad, WALK_PAIRS


def _lemma1_test(ctx, ys):
    """Lemma 1 at the trace-zero points ys as a walk's (p, q, bad, pairs): p = y, q = y^4+y^2+y,
    bad where some value is 0, at most WALK_PAIRS * n^2 values a block (a rank block's bits)."""
    log, ys = ctx.log_table, np.asarray(ys, dtype=np.int64)
    qs = ctx.pow_table(4)[ys] ^ ctx.pow_table(2)[ys] ^ ys
    return log[ys], log[qs], lambda cols: (cols == 0).any(axis=-1), WALK_PAIRS * ctx.n**2 // len(ys)


@cache
def _lemma1_all_y(ctx):
    """(ys, test): the nonzero trace-zero points, ascending, and Lemma 1's
    _lemma1_test at all of them (cached: read only)."""
    ys = ctx.trace_zero_nonzero()
    ys.setflags(write=False)
    return ys, _lemma1_test(ctx, ys)


def _orbit_minima(perm, n):
    """The least index of each orbit of the index permutation perm, ascending;
    every orbit has at most n members.  An index stays while it is at most
    each of its images perm^k(i) so far, k < n."""
    least, member = np.arange(len(perm)), perm
    for _ in range(n - 1):
        keep = least <= member
        least, member = least[keep], perm[member[keep]]
    return least


@cache
def _frobenius_leaders(ctx):
    """Indices into the cube-coset representatives of the first member of each
    orbit of v -> v^2, ascending (cached: read only)."""
    _, v_all = _coset_reps(ctx)
    index = np.zeros(ctx.order, dtype=np.int64)
    index[v_all] = np.arange(len(v_all))
    # v^2 is again a cube, so it has an index
    return _orbit_minima(index[ctx.pow_table(2)[v_all]], ctx.n)


@cache
def _square_orbit_minima(ctx):
    """The least a of each orbit of a -> a^2 on the nonzero a, ascending (cached: read only)."""
    minima = _orbit_minima(ctx.pow_table(2), ctx.n)[1:]
    minima.setflags(write=False)
    return minima


def _frobenius_walk(ctx, c1, c2, test):
    """Per row pair, the index into the cube-coset representatives of the
    first v at which test is bad, or -1.  c1 and c2 are 1-D int masks of 0/1
    rows, or 2-D coefficient rows whose binary rows are packed into masks.
    test must give the same verdict at v and v^2 on 0/1 rows: masks walk only
    the first member of each v -> v^2 orbit, and the first bad member is the
    first bad representative of the full walk.  The other rows walk every
    representative."""
    _, v_all = _coset_reps(ctx)
    c1, c2 = np.asarray(c1, dtype=np.int64), np.asarray(c2, dtype=np.int64)
    if c1.ndim == 1:
        lead = _frobenius_leaders(ctx)
        pos = _first_bad(ctx, c1, c2, v_all[lead], test)
        return np.where(pos < 0, -1, lead[pos])
    binary = ((c1 <= 1) & (c2 <= 1)).all(axis=1)
    first = np.empty(len(c1), dtype=np.int64)
    first[binary] = _frobenius_walk(ctx, _packed(c1[binary]), _packed(c2[binary]), test)
    first[~binary] = _first_bad(ctx, c1[~binary], c2[~binary], v_all, test)
    return first


def _packed(rows):
    """The 0/1 coefficient rows (shape (B, n)) as int masks, bit k = c_k."""
    return (rows << np.arange(rows.shape[1])).sum(axis=1)


def form1_rank_scan(ctx, c1, c2):
    """Per row pair of coefficients, the index into the cube-coset
    representatives of the first a whose linearized derivative has rank
    != n - 1, or -1 when there is none: that candidate is APN.

    The batched Form1 rank test; c1 and c2 have shape (B, n), or they are B
    int masks of 0/1 rows (bit k = c_k).  A row whose coefficients are all
    0 or 1 commutes with squaring, F(x^2) = F(x)^2, so its rank at v equals
    its rank at v^2.
    """
    return _frobenius_walk(ctx, c1, c2, _rank_test(ctx))


def _first_bad(ctx, c1, c2, vs, test):
    """Per row pair, the index of the first v in vs at which test is bad, or -1.

    test is (p, q, bad, pairs), p and q as logs: bad maps the _form1_cols of
    a block at (p, q) to a (row, v) bool array.  A slice of R rows walks vs
    in blocks over its surviving rows only, and a block that refutes rows
    drops them.  Block k is sized by its pair budget min(pairs, R * 2^k):
    its width is that budget over the surviving rows (at least one v).  So
    the blocks double while no row drops, a single row walks widths 1, 2,
    4, .., and a few survivors of a large slice take one or two wide blocks.
    A block after the first holds at most pairs (row, v) pairs unless more
    than pairs rows survive, when it is one v wide.  1-D int masks walk as
    one slice and are applied by linmap.apply_binary block by block.  2-D
    coefficient rows are taken WALK_PAIRS at a time, and the value tables of
    a slice's rows are built once.  When every L2 row of a slice is the same
    (the x^9 + L(x^3) shapes have L2(x) = x), it is kept once, as one row of
    value tables, and its term of _form1_cols broadcasts over the slice.
    """
    p, q, bad, pairs = test
    first = np.full(len(c1), -1, dtype=np.int64)
    step = max(1, len(c1)) if c1.ndim == 1 else WALK_PAIRS
    for lo in range(0, len(c1), step):
        m1, m2 = c1[lo : lo + step], c2[lo : lo + step]
        shared = (m2 == m2[0]).all()
        if shared:
            m2 = m2[:1]
        if c1.ndim == 2:
            m1, m2 = (linmap.image_tables(linmap.basis_images(ctx, m)) for m in (m1, m2))
        elif shared:
            m2 = linmap.mask_tables(ctx, m2)
        alive = np.arange(min(step, len(c1) - lo))
        start, target = 0, alive.size
        while alive.size and start < len(vs):
            width = min(max(1, min(target, pairs) // alive.size), len(vs) - start)
            block = bad(_form1_cols(ctx, m1, m2, vs[start : start + width], p, q))
            hit = block.any(axis=1)
            if hit.any():
                first[lo + alive[hit]] = start + block[hit].argmax(axis=1)
                alive = alive[~hit]
                m1 = _rows(m1, ~hit)
                m2 = m2 if shared else _rows(m2, ~hit)
            start += width
            target *= 2
    return first


def _kernel_extra(cols, n, known):
    """Least kernel element, other than 0 and known, of the map with packed n-bit columns cols."""
    rows = f2.transpose(cols, n)
    return next(x for x in f2.span(f2.nullspace(rows, len(cols))) if x not in (0, known))


def is_apn_quadratic(F) -> ApnVerdict:
    """Kernel test of the linearized derivative; accepts a VBF or a Form1.

    APN iff for every a != 0 the map x -> F(x+a)+F(x)+F(a)+F(0) has kernel
    exactly {0, a}.  Form1 inputs are walked per cube coset; a VBF that
    commutes with squaring is walked on one a per orbit of a -> a^2, and the
    witness's a is the first bad a either way.
    """
    if isinstance(F, Form1):
        return _apn_quadratic_form1(F)
    if F.algebraic_degree() > 2:
        raise NotQuadratic("input has algebraic degree > 2")
    a = int(_quadratic_first_bad(F.ctx, F.lut[None])[0])
    if a:
        cols = bilinear_table(F.lut, [a])[0]
        return ApnVerdict(False, _mk_witness(F, a, _kernel_extra(cols, F.ctx.n, a)), "quadratic")
    return ApnVerdict(True, None, "quadratic")


def _quadratic_first_bad(ctx, luts):
    """Per LUT of a batch of quadratic functions over ctx (shape (B, 2^n)),
    the first a != 0 whose linearized derivative does not have rank n - 1,
    or 0.

    A LUT with F(x^2) = F(x)^2 at every x (so F(0) is 0 or 1) has
    D_(a^2) at x^2 equal to the square of D_a at x, so its rank at a^2 is its
    rank at a and its bad a are whole orbits of a -> a^2: it walks only the
    least a of each orbit, ascending, and the first of those that is bad is
    its first bad a.  The other LUTs walk every a."""
    square = ctx.pow_table(2)
    commutes = (luts[:, square] == square[luts]).all(axis=1)
    first = np.zeros(len(luts), dtype=np.int64)
    if commutes.any():
        first[commutes] = _kernel_walk(luts[commutes], _square_orbit_minima(ctx))
    if not commutes.all():
        first[~commutes] = _kernel_walk(luts[~commutes], np.arange(1, ctx.order))
    return first


def _kernel_walk(luts, points):
    """Per LUT (at least one), the first a of the ascending points whose
    linearized derivative does not have rank n - 1, or 0.  A block holds
    about _CHUNK (LUT, a) pairs; a refuted LUT leaves the walk."""
    n = luts.shape[-1].bit_length() - 1
    first = np.zeros(len(luts), dtype=np.int64)
    alive = np.arange(len(luts))
    step = max(1, _CHUNK // len(luts))
    for start in range(0, len(points), step):
        a = points[start : start + step]
        block = bilinear_table(luts[alive], a)
        bad = (f2.batch_rank(block.reshape(-1, n), n) != n - 1).reshape(len(alive), -1)
        hit = bad.any(axis=1)
        first[alive[hit]] = a[bad[hit].argmax(axis=1)]
        alive = alive[~hit]
        if not alive.size:
            break
    return first


def batch_is_apn_quadratic(ctx, luts):
    """Per LUT of a batch of quadratic functions over ctx (shape (B, 2^n)),
    whether it is APN by the kernel test of is_apn_quadratic, on one a per
    orbit of a -> a^2 for the LUTs that commute with squaring; no witness."""
    return _quadratic_first_bad(ctx, np.asarray(luts)) == 0


def _cols_at(form: Form1, i, test):
    """The _form1_cols of one form at the i-th cube-coset representative and the test's points."""
    m1, m2 = (linmap.image_tables(linmap.basis_images(form.ctx, [L.coeffs])) for L in (form.L1, form.L2))
    return _form1_cols(form.ctx, m1, m2, _coset_reps(form.ctx)[1][i : i + 1], *test[:2])[0, 0]


def _apn_quadratic_form1(form: Form1) -> ApnVerdict:
    ctx = form.ctx
    first = int(form1_rank_scan(ctx, [form.L1.coeffs], [form.L2.coeffs])[0])
    if first < 0:
        return ApnVerdict(True, None, "quadratic")
    a = int(_coset_reps(ctx)[0][first])
    # Column 0 is zero, so the kernel holds x + 1 with every x and its least element other than
    # 0 and 1 is even: the least nonzero kernel element over the live columns, shifted back.
    z = _kernel_extra(_cols_at(form, first, _rank_test(ctx)), ctx.n, 0) << 1
    return ApnVerdict(False, _mk_witness(form, a, ctx.mul(a, z)), "quadratic")


def _lemma1_witness(form: Form1, a, y):
    """Turn a violating (a, y) pair into a differential witness."""
    ctx = form.ctx
    # solve x^2 + x = y, then rescale by a
    x0 = int(_x2_plus_x_roots(ctx)[y])
    if x0 < 0:
        raise InternalCheckFailed(f"trace-zero y={y} is not of the form x^2+x")
    return _mk_witness(form, a, ctx.mul(a, x0))


def _lemma1_pair(form: Form1):
    """The first (a, y), a a cube-coset representative and y a nonzero
    trace-zero point, with L1(a^3 y) + L2(a^9 (y^4+y^2+y)) = 0, or None.  On
    0/1 rows the value at (v^2, y^2) is the square of the one at (v, y), and
    y -> y^2 permutes the y, so such rows walk only the Frobenius leaders."""
    ctx = form.ctx
    ys, test = _lemma1_all_y(ctx)
    i = int(_frobenius_walk(ctx, [form.L1.coeffs], [form.L2.coeffs], test)[0])
    if i < 0:
        return None
    return int(_coset_reps(ctx)[0][i]), int(ys[np.argmax(_cols_at(form, i, test) == 0)])


def is_apn_lemma1(form: Form1) -> ApnVerdict:
    """Direct scan of the derivative condition on trace-zero points.

    APN iff L1(a^3 y) + L2(a^9 (y^4+y^2+y)) != 0 for every a != 0 and every
    nonzero trace-zero y.
    """
    pair = _lemma1_pair(form)
    if pair is None:
        return ApnVerdict(True, None, "lemma1")
    return ApnVerdict(False, _lemma1_witness(form, *pair), "lemma1")


def is_apn_tcondition(form: Form1) -> ApnVerdict:
    """Lemma 1 with the auxiliary t-element.

    A pair (a, y), y a nonzero trace-zero point, violates APN iff some
    trace-zero t solves L2(a^9 y^3 t) = L1(a^3 y) and at such a t
    L2(a^9 (y^4 + t y^3 + y^2 + y)) = 0.  The t-step has a closed-form
    solution: t = y + y^-1 + y^-2 has Tr(t) = Tr(y) = 0 and
    y^3 t = y^4 + y^2 + y, so both equations reduce to Lemma 1's
    L1(a^3 y) + L2(a^9 (y^4+y^2+y)) = 0, and the routes share its scan.  At
    the first violating pair the two identities are checked, and a failure
    raises InternalCheckFailed.
    """
    pair = _lemma1_pair(form)
    if pair is None:
        return ApnVerdict(True, None, "tcondition")
    a, y = pair
    ctx = form.ctx
    y_inv = ctx.inv(y)
    t = y ^ y_inv ^ ctx.mul(y_inv, y_inv)
    if ctx.trace(t) or ctx.mul(ctx.pow(y, 3), t) != ctx.pow(y, 4) ^ ctx.pow(y, 2) ^ y:
        raise InternalCheckFailed(f"t = y + y^-1 + y^-2 does not solve the t-step at a={a}, y={y}")
    return ApnVerdict(False, _lemma1_witness(form, a, y), "tcondition")


# -- quick-reject filters ------------------------------------------------------


def parity_mask(c1, c2):
    """Rows the parity filter rejects: binary rows whose coefficients sum to
    an even number.  Masks (1-D ints) are binary rows, and the parity of
    their sum is that of popcount(m1 ^ m2)."""
    c1, c2 = np.asarray(c1), np.asarray(c2)
    if c1.ndim == 1:
        m = c1 ^ c2
        return f2.parity(m, int(m.max(initial=0)).bit_length()) == 0
    c = np.concatenate([c1, c2], axis=1)
    return (c <= 1).all(axis=1) & (c.sum(axis=1) % 2 == 0)


def nonzero_scan(ctx, c1, c2):
    """Per row pair, the first cube-coset index j with F'(a_j) = L1(v_j) + L2(v_j^3) = 0,
    or -1: Lemma 1 at the one point y = 1, where y^4+y^2+y = 1.  Rows as in
    form1_rank_scan.  For 0/1 rows L1(v^2) + L2(v^6) = (L1(v) + L2(v^3))^2,
    so the zero set is closed under v -> v^2 and such rows walk the
    Frobenius leaders."""
    return _frobenius_walk(ctx, c1, c2, _lemma1_test(ctx, [1]))


def beta_scan(ctx, c1):
    """Per row of L1 coefficients (or per 0/1 mask), the first i with
    L1(beta v_i) = 0, or -1, for v_i the cube-coset representatives and beta
    the first subfield-8 trace-zero element: Lemma 1 at the one point
    y = beta, where y^4+y^2+y = 0.

    The filter's definition walks all three such beta_t, t-major, for the
    first t * k + i.  It needs n even and 3 | n, so 21 | 2^n - 1 and every
    beta_t is a cube: beta_t * {v_i} is the set of all nonzero cubes for each
    t.  A zero at t > 0 is then also one at t = 0, so the first zero always
    lies in the t = 0 block and its index is i.
    """
    _, v_all = _coset_reps(ctx)
    c1 = np.asarray(c1, dtype=np.int64)
    return _first_bad(ctx, c1, np.zeros_like(c1), v_all, _lemma1_test(ctx, _subfield8_trace_zero(ctx)[:1]))


def quick_reject_parity(form: Form1):
    """Binary-coefficient shortcut: equal coefficient parities force F(1)=0."""
    ctx = form.ctx
    if ctx.n % 2:
        raise OddDimension("parity filter applies to even n")
    if any(c > 1 for c in form.L1.coeffs + form.L2.coeffs):
        raise NonBinaryCoefficients("parity filter needs coefficients in {0,1}")
    if parity_mask([form.L1.coeffs], [form.L2.coeffs])[0]:
        return RejectWitness("parity", {"reason": "L1 and L2 have equal monomial parity"})
    return None


def quick_reject_nonzero(form: Form1):
    """Scan F'(a) over cube-coset representatives; a zero value refutes APN."""
    ctx = form.ctx
    if ctx.n % 2:
        raise OddDimension("nonzero-value filter applies to even n")
    j = int(nonzero_scan(ctx, [form.L1.coeffs], [form.L2.coeffs])[0])
    if j >= 0:
        return RejectWitness("nonzero", {"j": j, "a": int(_coset_reps(ctx)[0][j])})
    return None


@cache
def _subfield8_trace_zero(ctx):
    """The three nonzero GF(8) elements with subfield trace 0 (roots of y^3+y+1), ascending (cached)."""
    p2, p4 = ctx.pow_table(2), ctx.pow_table(4)
    xs = np.arange(1, ctx.order, dtype=np.int64)
    sel = xs[(p4[xs] ^ p2[xs] ^ xs) == 0]
    if len(sel) != 3:
        raise InternalCheckFailed(f"y^4+y^2+y has {len(sel)} nonzero roots, not 3")
    return tuple(int(b) for b in sel)


def quick_reject_beta(form: Form1):
    """For 3 | n, L1 must not vanish on a^3 * beta for subfield-8 trace-zero beta."""
    ctx = form.ctx
    if ctx.n % 2 or ctx.n % 3:
        raise BadDimension("beta filter needs n even and divisible by 3")
    i = int(beta_scan(ctx, [form.L1.coeffs])[0])
    if i >= 0:
        return RejectWitness("beta", {"a": int(_coset_reps(ctx)[0][i]), "beta": _subfield8_trace_zero(ctx)[0]})
    return None


# -- structural consequences ---------------------------------------------------


def build_L3(form: Form1) -> LinearizedPoly:
    """The map L1(x^2+x)+L2(x^8+x) in coefficient form.

    When the realized function is APN, this map is 2-to-1 with kernel {0,1}.
    """
    ctx = form.ctx
    n = ctx.n
    if n < 4:
        raise DimensionTooSmall("coefficient indices need n >= 4")
    b = form.L1.coeffs
    c = form.L2.coeffs
    d = [b[i] ^ b[(i - 1) % n] ^ c[i] ^ c[(i - 3) % n] for i in range(n)]
    return LinearizedPoly(ctx, d)


# -- permutation criteria ------------------------------------------------------


def x_plus_L_cube(L: LinearizedPoly) -> VBF:
    """The map x + L(x^3)."""
    ctx = L.ctx
    idx = np.arange(ctx.order, dtype=np.int64)
    return VBF(ctx, idx ^ L.lut()[ctx.pow_table(3)])


def perm_suff_trace(L: LinearizedPoly) -> bool:
    """Sufficient trace criterion for x + L(x^3) to be a permutation.

    Checks Tr(u / L(u)^3) == 0 (n odd) or == 1 (n even) wherever L(u) != 0.
    A True answer guarantees a permutation; False is inconclusive.
    """
    ctx = L.ctx
    want = 1 if ctx.n % 2 == 0 else 0
    lu = L.lut()
    us = np.nonzero(lu != 0)[0].astype(np.int64)
    if us.size == 0:
        return True
    vals = ctx.mulv(us, ctx.invv(ctx.pow_table(3)[lu[us]]))
    return bool(np.all(ctx.trace_table()[vals] == want))


def perm_iff(L: LinearizedPoly) -> bool:
    """Exact adjoint/cube-root criterion for x + L(x^3) being a permutation."""
    ctx = L.ctx
    adj = L.adjoint().lut()
    if ctx.n % 2 == 0:
        for b in range(1, ctx.order):
            lb = int(adj[b])
            if lb == 0:
                continue
            roots = ctx.cube_roots(lb)
            if not roots:
                return False
            if not any(ctx.rel_trace(2, ctx.mul(ctx.inv(g), b)) != 0 for g in roots):
                return False
        return True
    for b in range(1, ctx.order):
        lb = int(adj[b])
        if lb == 0:
            continue
        g = ctx.cube_roots(lb)[0]
        if ctx.trace(ctx.mul(ctx.inv(g), b)) != 0:
            return False
    return True


def build_eq3(L: LinearizedPoly, a, b) -> VBF:
    """a x^3 + L(a^3 x^9 + a^2 b x^6 + a b^2 x^3).

    APN whenever x + L(x^3) is a permutation (even n).
    """
    ctx = L.ctx
    if ctx.n % 2:
        raise OddDimension("construction defined for even n")
    if a == 0:
        raise ZeroA("a must be nonzero")
    p3, p6, p9 = ctx.pow_table(3), ctx.pow_table(6), ctx.pow_table(9)
    a3 = ctx.pow(a, 3)
    a2b = ctx.mul(ctx.pow(a, 2), b)
    ab2 = ctx.mul(a, ctx.pow(b, 2))
    inner = ctx.mulcv(a3, p9) ^ ctx.mulcv(a2b, p6) ^ ctx.mulcv(ab2, p3)
    return VBF(ctx, ctx.mulcv(a, p3) ^ L.lut()[inner])


# -- named constructions -------------------------------------------------------


def family(kind, ctx, a=1) -> VBF:
    """Named constructions built from trace terms added to x^3.

    kinds: tr9 (APN for any n), tr3_a / tr3_b (APN for 3 | n),
    half_trace_1 / half_trace_2 (n = 2m with m even; the parameter a is not
    used by those two).  Caveat established computationally: half_trace_2,
    the cubed variant, passes the differential test only at m = 2; for
    m in {4, 6} it has algebraic degree 4 and differential counts above 2.
    """
    if a == 0:
        raise ZeroA("parameter a must be nonzero")
    p3 = ctx.pow_table(3)
    if kind == "tr9":
        arg = ctx.mulcv(ctx.pow(a, 3), ctx.pow_table(9))
        tr = ctx.trace_table()[arg].astype(np.int64)
        return VBF(ctx, p3 ^ ctx.mulcv(ctx.inv(a), tr))
    if kind in ("tr3_a", "tr3_b"):
        if ctx.n % 3:
            raise BadDimension("needs 3 | n")
        if kind == "tr3_a":
            arg = ctx.mulcv(ctx.pow(a, 6), ctx.pow_table(18)) ^ ctx.mulcv(
                ctx.pow(a, 12), ctx.pow_table(36)
            )
        else:
            arg = ctx.mulcv(ctx.pow(a, 3), ctx.pow_table(9)) ^ ctx.mulcv(
                ctx.pow(a, 6), ctx.pow_table(18)
            )
        rt = ctx.rel_tracev(3, arg)
        return VBF(ctx, p3 ^ ctx.mulcv(ctx.inv(a), rt))
    if kind in ("half_trace_1", "half_trace_2"):
        if ctx.n % 2:
            raise BadDimension("needs n = 2m")
        m = ctx.n // 2
        if m % 2:
            raise BadDimension("needs n = 2m with m even")
        rt = ctx.rel_tracev(m, ctx.pow_table((1 << m) + 2))
        if kind == "half_trace_2":
            rt = p3[rt]
        return VBF(ctx, p3 ^ rt)
    raise ValueError(f"unknown family kind {kind!r}")


def known_power_exponents(ctx):
    """(name, exponent, algebraic degree) for every classical APN power
    function whose side condition holds at this dimension."""
    n = ctx.n
    rows = []
    for i in range(1, n):
        if math.gcd(i, n) == 1:
            rows.append(("gold", (1 << i) + 1, 2))
    for i in range(2, (n - 1) // 2 + 1):
        if math.gcd(i, n) == 1:
            rows.append(("kasami", (1 << (2 * i)) - (1 << i) + 1, i + 1))
    if n % 2:
        t = (n - 1) // 2
        if t >= 2:
            rows.append(("welch", (1 << t) + 3, 3))
        if t % 2 == 0:
            rows.append(("niho", (1 << t) + (1 << (t // 2)) - 1, (t + 2) // 2))
        else:
            rows.append(("niho", (1 << t) + (1 << ((3 * t + 1) // 2)) - 1, t + 1))
        rows.append(("inverse", (1 << (2 * t)) - 1, n - 1))
    if n % 5 == 0:
        i = n // 5
        d = (1 << (4 * i)) + (1 << (3 * i)) + (1 << (2 * i)) + (1 << i) - 1
        rows.append(("dobbertin", d, i + 3))
    return rows


# -- adding a Boolean component -------------------------------------------------


def check_boolean_addition(F: VBF, f: BooleanFunction) -> bool:
    """Linear-compatibility certificate that F + f stays APN.

    For every a != 0 a linear Boolean l_a must map phi_F(., a) values to
    phi_f(., a) values, with l_a(1) = 0 whenever 1 is reached by phi_F.
    """
    ctx = F.ctx
    if F.algebraic_degree() > 2 or f.algebraic_degree() > 2:
        raise PreconditionViolated("both inputs must be quadratic")
    if not is_apn_quadratic(F).is_apn:
        raise PreconditionViolated("base function must be APN")
    luts = np.stack([F.lut, f.to_array().astype(np.int64)])
    rows, bits = bilinear_table(luts, np.arange(ctx.order))
    rhs = (bits << np.arange(ctx.n)).sum(axis=1)
    # one system per a != 0; the last row, 1, with right-hand side 0 forces l_a(1) = 0
    rows = np.column_stack([rows[1:], np.ones(ctx.order - 1, dtype=np.int64)])
    return bool(f2.batch_solvable(rows, rhs[1:], ctx.n).all())
