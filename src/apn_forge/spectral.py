"""Walsh transforms, bentness, and the component-structure analysis of
quadratic functions: the subspaces V_lambda / Delta_a, their dimension
profile, the derivative-sum characterization of APN-ness, and the
bent-component count used as conjecture evidence.

For quadratic F, bentness of a component f_lambda is decided from the rank
of its symplectic bilinear form (O(n^3) per lambda) instead of a Walsh
transform; both paths are cross-validated in the test suite.
"""

from dataclasses import dataclass, field

import numpy as np

from . import apn, f2
from .errors import InternalCheckFailed, NotQuadratic, OddDimension
from .vbf import VBF, BooleanFunction, Form1, bilinear_table, ddt_row_blocks
from .vbf import gram_elements


class WalshSpectrum:
    """values[u] = sum_x (-1)^(f(x) + Tr(u x))."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.int64)

    def parseval_holds(self):
        n2 = len(self.values)
        return int(np.sum(self.values.astype(object) ** 2)) == n2 * n2

    def __getitem__(self, u):
        return int(self.values[u])

    def __len__(self):
        return len(self.values)


def fwht(a):
    """In-place fast transform along the last axis (length a power of 2)."""
    size = a.shape[-1]
    h = 1
    while h < size:
        b = a.reshape(a.shape[:-1] + (size // (2 * h), 2, h))
        top = b[..., 0, :] + b[..., 1, :]
        bot = b[..., 0, :] - b[..., 1, :]
        b[..., 0, :] = top
        b[..., 1, :] = bot
        h *= 2
    return a


def wht(f: BooleanFunction, ctx):
    """Walsh spectrum of a Boolean function, indexed by field elements."""
    w = fwht(f.to_signs())
    return WalshSpectrum(w[ctx.trace_masks()])


def F0(f: BooleanFunction):
    """Transform value at 0: 2^n - 2*wt(f); zero iff f is balanced."""
    return (1 << f.n) - 2 * f.weight()


def is_bent(f: BooleanFunction):
    if f.n % 2:
        return False
    return bool(np.all(np.abs(fwht(f.to_signs())) == 1 << (f.n // 2)))


# -- quadratic component structure ------------------------------------------


def _check_quadratic(F: VBF):
    if F.algebraic_degree() > 2:
        raise NotQuadratic("operation requires algebraic degree <= 2")


def radical_dims(ctx, phi):
    """dim V_lambda, the radical of Tr(lambda phi), for every lambda: a batch of
    Gram tables phi of shape (..., n, n) gives shape (..., 2^n), indexed by lambda.
    The lambda-forms are ctx.trace_forms(phi), ranked by one f2.batch_rank call."""
    rows = np.moveaxis(ctx.trace_forms(phi), -1, -2).reshape(-1, ctx.n)
    return ctx.n - f2.batch_rank(rows, ctx.n).reshape(phi.shape[:-2] + (ctx.order,))


def _vdims_quadratic(F: VBF):
    """dim V_lambda for every lambda (index = lambda); no degree check."""
    return radical_dims(F.ctx, gram_elements(F))


def v_lambda(F: VBF, lam):
    """All a for which the lambda-component's derivative in direction a is constant."""
    _check_quadratic(F)
    ctx = F.ctx
    if lam == 0:
        return list(range(ctx.order))
    bits = ctx.trace_table()[ctx.mulcv(lam, gram_elements(F))].astype(np.int64)
    rows = (bits << np.arange(ctx.n)).sum(axis=1)
    return f2.span(f2.nullspace(rows.tolist(), ctx.n))


def delta_a(F: VBF, a):
    """All lambda for which D_a f_lambda is constant."""
    _check_quadratic(F)
    ctx = F.ctx
    if a == 0:
        return list(range(ctx.order))
    rows = ctx.trace_masks()[bilinear_table(F.lut, [a])[0]]
    return f2.span(f2.nullspace(rows.tolist(), ctx.n))


def bent_components(F: VBF):
    """Number of nonzero lambda whose component Tr(lambda F(x)) is bent."""
    ctx = F.ctx
    if ctx.n % 2:
        raise OddDimension("bent components exist only for even n")
    if F.algebraic_degree() <= 2:
        dims = _vdims_quadratic(F)
        return int(np.count_nonzero(dims[1:] == 0))
    count = 0
    for lam in range(1, ctx.order):
        if is_bent(F.component(lam)):
            count += 1
    return count


@dataclass
class SpectralProfile:
    """Component-structure summary of one quadratic function."""

    bent_count: int
    gamma: dict = field(default_factory=dict)  # dim -> |{lambda != 0 : dim V_lambda = dim}|
    v_dims: dict = field(default_factory=dict)  # lambda -> dim V_lambda

    def as_dict(self):
        return {
            "bent_count": self.bent_count,
            "gamma": {str(k): v for k, v in sorted(self.gamma.items())},
        }


def spectral_profile(F: VBF):
    _check_quadratic(F)
    dims = _vdims_quadratic(F)
    gamma = {}
    for d in dims[1:]:
        gamma[int(d)] = gamma.get(int(d), 0) + 1
    bent = gamma.get(0, 0)
    v_dims = {lam: int(dims[lam]) for lam in range(1, F.ctx.order)}
    return SpectralProfile(bent_count=bent, gamma=gamma, v_dims=v_dims)


# -- derivative-sum characterization ------------------------------------------


def apn_sum_check(F: VBF):
    """Per-direction sums sum_lambda F0(D_a f_lambda)^2.

    Every sum is at least 2^(2n+1); equality for all nonzero a is
    equivalent to F being APN.  Returns (is_apn, {a: sum}).
    """
    target = 1 << (2 * F.ctx.n + 1)
    sums = {}
    for a0, C in ddt_row_blocks(F):
        w = fwht(C)
        s = (w * w).sum(axis=1)
        if (s < target).any():
            raise InternalCheckFailed("derivative-sum lower bound violated")
        sums.update(zip(range(a0, a0 + len(s)), s.tolist()))
    return all(s == target for s in sums.values()), sums


def unique_lambda_check(form: Form1):
    """True iff every nonzero a admits exactly one nonzero lambda making
    D_a f_lambda constant: the kernel test of apn.is_apn_quadratic on the realized
    map, since the trace masks T[phi(a, e_j)] have the rank of the phi(a, e_j)."""
    return apn.is_apn_quadratic(form.realize()).is_apn


def conjecture_check(f):
    """Evidence point for the bent-count criterion on even dimensions.

    Accepts a Form1 or a plain quadratic VBF.  Returns
    (apn, bent_count, relation_holds) where relation_holds records whether
    'APN <=> bent_count == (2/3)(2^n - 1)' held for this function.  A
    violation is a reportable finding, never an error.
    """
    F = f.realize() if isinstance(f, Form1) else f
    ctx = F.ctx
    if ctx.n % 2:
        raise OddDimension("the bent-count relation concerns even n")
    apn, _ = apn_sum_check(F)
    bent = bent_components(F)
    target = 2 * (ctx.order - 1) // 3
    return apn, bent, (apn == (bent == target))
