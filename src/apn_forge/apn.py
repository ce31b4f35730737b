"""APN tests, quick-reject filters, permutation criteria and constructions.

The ground-truth oracle is the naive differential count
(:func:`is_apn_naive`).  Faster routes exist for quadratic functions and
for the L1(x^3)+L2(x^9) family, whose derivative structure depends on the
direction a only through a^3: on even dimensions those tests walk one
representative per cube coset, a third of the space.

Every negative verdict carries a materialized witness (a, b, xs) with at
least four solutions to F(x+a)+F(x)=b, re-verified against the lookup
table before it is returned.
"""

import math
from dataclasses import dataclass
from functools import cache
from typing import Optional

import numpy as np

from . import f2
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
from .vbf import VBF, BooleanFunction, Form1, bilinear_table, ddt_row_blocks, deriv_basis_table

_CHUNK = 4096


@dataclass
class Witness:
    a: int
    b: int
    xs: tuple

    def verifies(self, F: VBF):
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


def _checked(F: VBF, w: Witness):
    if not w.verifies(F):
        raise InternalCheckFailed(f"witness at a={w.a}, b={w.b} failed re-verification")
    return w


def _mk_witness(F: VBF, a, extra_x):
    """Witness from one extra kernel element of the derivative at a."""
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
def _trace_zero_points(ctx):
    """The nonzero trace-zero y, w = y^4+y^2+y, and the logs of y and w (cached: read only)."""
    ys = ctx.trace_zero_nonzero()
    ws = ctx.pow_table(4)[ys] ^ ctx.pow_table(2)[ys] ^ ys
    return ys, ws, ctx.log_table[ys], ctx.log_table[ws]


@cache
def _x2_plus_x_roots(ctx):
    """R[y] = a root of x^2 + x = y, or -1; roots x and x + 1 give the same witness."""
    roots = np.full(ctx.order, -1, dtype=np.int64)
    roots[ctx.pow_table(2) ^ ctx.elements()] = ctx.elements()
    return roots


def _sq_shift_points(ctx):
    """u2[j] = e_j^2+e_j and u8[j] = e_j^8+e_j on the polynomial basis."""
    u2 = [ctx.pow(1 << j, 2) ^ (1 << j) for j in range(ctx.n)]
    u8 = [ctx.pow(1 << j, 8) ^ (1 << j) for j in range(ctx.n)]
    return u2, u8


def _kernel_extra(cols, known):
    """Least kernel element, other than 0 and known, of the map with packed columns cols."""
    rows = f2.transpose(cols.tolist(), len(cols))
    return next(x for x in f2.span(f2.nullspace(rows, len(cols))) if x not in (0, known))


def is_apn_quadratic(F, assume_quadratic=False) -> ApnVerdict:
    """Kernel test of the linearized derivative; accepts a VBF or a Form1.

    APN iff for every a != 0 the map x -> F(x+a)+F(x)+F(a)+F(0) has kernel
    exactly {0, a}.  Form1 inputs are walked per cube coset.
    """
    if isinstance(F, Form1):
        return _apn_quadratic_form1(F)
    if not assume_quadratic and F.algebraic_degree() > 2:
        raise NotQuadratic("input has algebraic degree > 2")
    ctx = F.ctx
    W = deriv_basis_table(F)
    for start in range(1, ctx.order, _CHUNK):
        block = W[start : start + _CHUNK]
        ranks = f2.batch_rank(block, ctx.n)
        bad = np.nonzero(ranks != ctx.n - 1)[0]
        if bad.size:
            a = start + int(bad[0])
            return ApnVerdict(False, _mk_witness(F, a, _kernel_extra(W[a], a)), "quadratic")
    return ApnVerdict(True, None, "quadratic")


def _apn_quadratic_form1(form: Form1) -> ApnVerdict:
    ctx = form.ctx
    n = ctx.n
    l1 = form.L1.lut()
    l2 = form.L2.lut()
    u2, u8 = _sq_shift_points(ctx)
    a_all, v_all = _coset_reps(ctx)
    p3 = ctx.pow_table(3)
    for start in range(0, len(v_all), _CHUNK):
        vs = v_all[start : start + _CHUNK]
        ws = p3[vs]
        cols = np.empty((len(vs), n), dtype=np.int64)
        for j in range(n):
            cols[:, j] = l1[ctx.mulcv(u2[j], vs)] ^ l2[ctx.mulcv(u8[j], ws)]
        ranks = f2.batch_rank(cols, n)
        bad = np.nonzero(ranks != n - 1)[0]
        if bad.size:
            a = int(a_all[start + int(bad[0])])
            z = _kernel_extra(cols[int(bad[0])], 1)
            return ApnVerdict(False, _mk_witness(form.realize(), a, ctx.mul(a, z)), "quadratic")
    return ApnVerdict(True, None, "quadratic")


def _lemma1_witness(form: Form1, a, y):
    """Turn a violating (a, y) pair into a differential witness."""
    ctx = form.ctx
    # solve x^2 + x = y, then rescale by a
    x0 = int(_x2_plus_x_roots(ctx)[y])
    if x0 < 0:
        raise InternalCheckFailed(f"trace-zero y={y} is not of the form x^2+x")
    return _mk_witness(form.realize(), a, ctx.mul(a, x0))


def is_apn_lemma1(form: Form1) -> ApnVerdict:
    """Direct scan of the derivative condition on trace-zero points.

    APN iff L1(a^3 y) + L2(a^9 (y^4+y^2+y)) != 0 for every a != 0 and every
    nonzero trace-zero y.
    """
    ctx = form.ctx
    l1 = form.L1.lut()
    l2 = form.L2.lut()
    ys, _, log_ys, log_ws = _trace_zero_points(ctx)
    exp, log = ctx.antilog_table, ctx.log_table
    p3 = ctx.pow_table(3)
    a_all, v_all = _coset_reps(ctx)
    for i in range(len(v_all)):
        v = int(v_all[i])
        # v * y as antilog[log v + log y]: mulcv without its gather of log y
        vals = l1[exp[int(log[v]) + log_ys]] ^ l2[exp[int(log[p3[v]]) + log_ws]]
        z = np.nonzero(vals == 0)[0]
        if z.size:
            a, y = int(a_all[i]), int(ys[int(z[0])])
            return ApnVerdict(False, _lemma1_witness(form, a, y), "lemma1")
    return ApnVerdict(True, None, "lemma1")


def is_apn_tcondition(form: Form1) -> ApnVerdict:
    """Scan with the auxiliary t-element shortcut.

    For each (a, y) the solutions t of L1(a^3 y) = L2(a^9 y^3 t) form an
    affine subspace; when no trace-zero t exists the pair passes outright,
    otherwise L2(a^9(y^4+t y^3+y^2+y)) must be nonzero at such a t.
    """
    ctx = form.ctx
    n = ctx.n
    l1 = form.L1.lut()
    l2 = form.L2.lut()
    tb = ctx.trace_table()
    ys, ys4, _, _ = _trace_zero_points(ctx)
    p3 = ctx.pow_table(3)
    y3 = p3[ys]
    a_all, v_all = _coset_reps(ctx)

    invertible = form.L2.is_permutation()
    if invertible:
        l2inv = np.empty(ctx.order, dtype=np.int64)
        l2inv[l2] = np.arange(ctx.order)

    for i in range(len(v_all)):
        v = int(v_all[i])
        w = int(p3[v])
        rhs = l1[ctx.mulcv(v, ys)]
        if invertible:
            c = ctx.mulcv(w, y3)
            t = ctx.mulv(ctx.invv(c), l2inv[rhs])
            tz = tb[t] == 0
            chk = l2[ctx.mulcv(w, ys4 ^ ctx.mulv(y3, t))]
            viol = np.nonzero(tz & (chk == 0))[0]
            if viol.size:
                a, y = int(a_all[i]), int(ys[int(viol[0])])
                return ApnVerdict(False, _lemma1_witness(form, a, y), "tcondition")
            continue
        for yi in range(len(ys)):
            y = int(ys[yi])
            c = ctx.mul(w, int(y3[yi]))
            cols = [int(l2[ctx.mul(c, 1 << j)]) for j in range(n)]
            sol = f2.solve(f2.transpose(cols, n), int(rhs[yi]), n)
            if sol is None:
                continue
            t0, kern = sol
            if tb[t0]:
                for kv in kern:
                    if tb[kv]:
                        t0 ^= kv
                        break
                else:
                    continue  # solutions exist but none has trace zero
            arg = int(ys4[yi]) ^ ctx.mul(int(y3[yi]), t0)
            if l2[ctx.mul(w, arg)] == 0:
                a = int(a_all[i])
                return ApnVerdict(False, _lemma1_witness(form, a, y), "tcondition")
    return ApnVerdict(True, None, "tcondition")


# -- quick-reject filters ------------------------------------------------------


def quick_reject_parity(form: Form1):
    """Binary-coefficient shortcut: equal coefficient parities force F(1)=0."""
    ctx = form.ctx
    if ctx.n % 2:
        raise OddDimension("parity filter applies to even n")
    coeffs = form.L1.coeffs + form.L2.coeffs
    if any(c > 1 for c in coeffs):
        raise NonBinaryCoefficients("parity filter needs coefficients in {0,1}")
    if (sum(form.L1.coeffs) + sum(form.L2.coeffs)) % 2 == 0:
        return RejectWitness("parity", {"reason": "L1 and L2 have equal monomial parity"})
    return None


def quick_reject_nonzero(form: Form1):
    """Scan F'(a) over cube-coset representatives; a zero value refutes APN."""
    ctx = form.ctx
    if ctx.n % 2:
        raise OddDimension("nonzero-value filter applies to even n")
    a_all, v_all = _coset_reps(ctx)  # a = alpha^j, v = a^3
    vals = form.L1.lut()[v_all] ^ form.L2.lut()[ctx.pow_table(3)[v_all]]
    z = np.nonzero(vals == 0)[0]
    if z.size:
        j = int(z[0])
        return RejectWitness("nonzero", {"j": j, "a": int(a_all[j])})
    return None


def _subfield8_trace_zero(ctx):
    """The three nonzero GF(8) elements with subfield trace 0 (roots of y^3+y+1)."""
    p2, p4 = ctx.pow_table(2), ctx.pow_table(4)
    xs = np.arange(1, ctx.order, dtype=np.int64)
    sel = xs[(p4[xs] ^ p2[xs] ^ xs) == 0]
    if len(sel) != 3:
        raise InternalCheckFailed(f"y^4+y^2+y has {len(sel)} nonzero roots, not 3")
    return [int(b) for b in sel]


def quick_reject_beta(form: Form1):
    """For 3 | n, L1 must not vanish on a^3 * beta for subfield-8 trace-zero beta."""
    ctx = form.ctx
    if ctx.n % 2 or ctx.n % 3:
        raise BadDimension("beta filter needs n even and divisible by 3")
    a_all, v_all = _coset_reps(ctx)
    l1 = form.L1.lut()
    for beta in _subfield8_trace_zero(ctx):
        vals = l1[ctx.mulcv(beta, v_all)]
        z = np.nonzero(vals == 0)[0]
        if z.size:
            i = int(z[0])
            return RejectWitness("beta", {"a": int(a_all[i]), "beta": beta})
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
    for a in range(1, ctx.order):
        # the last row forces l_a(1) = 0
        if f2.solve(rows[a].tolist() + [1], int(rhs[a]), ctx.n) is None:
            return False
    return True
