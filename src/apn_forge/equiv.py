"""Equivalence-class invariants used to separate APN functions.

Extended Walsh and differential spectra plus graph/difference-set ranks
distinguish CCZ classes; ortho-derivative spectra distinguish EA classes of
quadratic APN functions, which is what separates the representative lists
in practice.  Identical profiles never certify equivalence: partitioning
reports such buckets as unresolved.
"""

import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import f2
from .errors import DimensionTooLarge, NotQuadratic, NotQuadraticApn
from .spectral import fwht
from .vbf import VBF, ddt_row_blocks, deriv_basis_table
from .linmap import LinearizedPoly


def _multiset(values):
    vals, counts = np.unique(np.asarray(values), return_counts=True)
    return tuple((int(v), int(c)) for v, c in zip(vals, counts))


def extended_walsh(F: VBF):
    """Multiset of |Walsh| over all components lambda != 0 and all u."""
    ctx = F.ctx
    lam = np.arange(1, ctx.order, dtype=np.int64)
    prods = ctx.antilog_table[ctx.log_table[lam][:, None] + ctx.log_table[F.lut][None, :]]
    signs = 1 - 2 * ctx.trace_table()[prods].astype(np.int64)
    spec = fwht(signs)
    return _multiset(np.abs(spec).ravel())


def diff_spectrum(F: VBF):
    """Multiset of differential counts over all a != 0 and all b."""
    acc = np.zeros(F.ctx.order + 1, dtype=np.int64)
    for _, C in ddt_row_blocks(F):
        acc += np.bincount(C.ravel(), minlength=F.ctx.order + 1)
    return tuple((int(v), int(c)) for v, c in enumerate(acc) if c)


def _incidence_rows(points, n2):
    """(x, M[x]) for every x < 2^n2 in Gray-code order, M[x] = sum of 2^y over y in x + points.

    Flipping bit k of x sends each y to y + 2^k, which swaps the halves of
    every 2^(k+1)-bit block of the row: three big-int operations a row.
    """
    size = 1 << n2
    full = (1 << size) - 1
    # lows[k] holds the bits y with bit k of y clear: 2^k ones, 2^k zeros, repeated
    lows = [full // ((1 << (2 << k)) - 1) * ((1 << (1 << k)) - 1) for k in range(n2)]
    row = 0
    for g in points:
        row |= 1 << int(g)
    x = 0
    yield x, row
    for i in range(1, size):
        k = (i & -i).bit_length() - 1
        half, low = 1 << k, lows[k]
        row = ((row & low) << half) | ((row >> half) & low)
        x ^= half
        yield x, row


def _incidence_rank(points, n2):
    """Rank of the 2^n2 x 2^n2 incidence matrix M[x][y] = [y in x + points]."""
    return f2.rank(row for _, row in _incidence_rows(points, n2))


def _check_rank_dim(ctx, allow_large):
    if ctx.n > 8:
        raise DimensionTooLarge(f"rank invariants are unsupported for n={ctx.n} > 8")
    if ctx.n == 8 and not allow_large:
        raise DimensionTooLarge("n = 8 rank computation requires explicit opt-in")


def gamma_rank(F: VBF, allow_large=False):
    """F2-rank of the incidence matrix of the translated function graph."""
    _check_rank_dim(F.ctx, allow_large)
    n = F.ctx.n
    graph = [(x << n) | int(F.lut[x]) for x in range(F.ctx.order)]
    return _incidence_rank(graph, 2 * n)


def _difference_set(F: VBF):
    """Points (a << n) | b of {(a, b) : a != 0, DDT[a][b] > 0}, ascending."""
    parts = []
    for a0, C in ddt_row_blocks(F):
        rows, bs = np.nonzero(C)
        parts.append(((a0 + rows) << F.ctx.n) | bs)
    return np.concatenate(parts)


def delta_rank(F: VBF, allow_large=False):
    """Like gamma_rank but over the difference set {(a,b) : a != 0, DDT[a][b] > 0}."""
    _check_rank_dim(F.ctx, allow_large)
    return _incidence_rank(_difference_set(F), 2 * F.ctx.n)


def _f3_rank(A):
    """Rank over GF(3) of a dense integer matrix, by forward elimination."""
    A = A.astype(np.int8) % 3
    rows, cols = A.shape
    r = 0
    for c in range(cols):
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            A[[r, piv]] = A[[piv, r]]
        pr = A[r, c:] * A[r, c]  # leads with 1 or 4, both 1 mod 3
        below = r + 1 + np.nonzero(A[r + 1 :, c])[0]
        if below.size:
            sub = A[below, c:]
            A[below, c:] = (sub + (3 - sub[:, :1]) * pr) % 3
        r += 1
        if r == rows:
            break
    return r


def gamma3_rank(F: VBF):
    """GF(3)-rank of the graph-translate matrix restricted to difference rows.

    Rows are indexed by the difference set D of the graph (which transforms
    linearly under a CCZ map), columns by the whole plane (which transforms
    affinely), entry [d][y] = [d + y in graph].  Both index sets are only
    relabeled by an equivalence, so the rank over any coefficient field is a
    CCZ invariant.  The rank over GF(3) separates classes whose binary
    invariants all coincide (notably the two classes on GF(2^5), where every
    function is almost bent and all standard spectra are forced).
    """
    ctx = F.ctx
    if ctx.n > 6:
        raise DimensionTooLarge("gamma3_rank is supported for n <= 6")
    n = ctx.n
    plane = 1 << (2 * n)
    graph = np.zeros(plane, dtype=bool)
    graph[(np.arange(ctx.order) << n) | F.lut] = True
    D = _difference_set(F)
    M = graph[D[:, None] ^ np.arange(plane)[None, :]]
    return _f3_rank(M)


def ortho_derivative(F: VBF, assume_quadratic=False) -> VBF:
    """For quadratic APN F with F(0)=0: the unique nonzero direction
    trace-orthogonal to the image of each linearized derivative."""
    ctx = F.ctx
    if F(0) != 0:
        raise NotQuadraticApn("requires F(0) = 0")
    if not assume_quadratic and F.algebraic_degree() > 2:
        raise NotQuadratic("requires a quadratic function")
    masks = ctx.trace_masks()[deriv_basis_table(F)]
    out = np.zeros(ctx.order, dtype=np.int64)
    for a in range(1, ctx.order):
        ns = f2.nullspace([int(m) for m in masks[a]], ctx.n)
        if len(ns) != 1:
            raise NotQuadraticApn(f"derivative image at a={a} is not a hyperplane")
        out[a] = ns[0]
    return VBF(ctx, out)


@dataclass
class InvariantProfile:
    ext_walsh: tuple
    diff_spectrum: tuple
    gamma_rank: Optional[int] = None
    delta_rank: Optional[int] = None
    ortho_diff_spectrum: Optional[tuple] = None
    ortho_walsh_spectrum: Optional[tuple] = None
    gamma3_rank: Optional[int] = None

    def key(self):
        return (
            self.ext_walsh,
            self.diff_spectrum,
            self.gamma_rank,
            self.delta_rank,
            self.ortho_diff_spectrum,
            self.ortho_walsh_spectrum,
            self.gamma3_rank,
        )

    def as_dict(self):
        def ms(t):
            return None if t is None else {str(v): c for v, c in t}

        return {
            "ext_walsh": ms(self.ext_walsh),
            "diff_spectrum": ms(self.diff_spectrum),
            "gamma_rank": self.gamma_rank,
            "delta_rank": self.delta_rank,
            "ortho_diff_spectrum": ms(self.ortho_diff_spectrum),
            "ortho_walsh_spectrum": ms(self.ortho_walsh_spectrum),
            "gamma3_rank": self.gamma3_rank,
        }


def profile(
    F: VBF,
    with_ranks=False,
    allow_large=False,
    with_ortho=True,
    with_gamma3=False,
    assume_quadratic=False,
):
    """Compute all applicable invariants of one function.

    Ortho-derivative spectra are filled in exactly when the ortho derivative
    exists (quadratic APN, F(0)=0); rank invariants are opt-in, and the
    GF(3) translate rank is the escalation step for pairs the binary
    invariants cannot split.
    """
    p = InvariantProfile(ext_walsh=extended_walsh(F), diff_spectrum=diff_spectrum(F))
    if with_ranks:
        p.gamma_rank = gamma_rank(F, allow_large)
        p.delta_rank = delta_rank(F, allow_large)
    if with_ortho:
        try:
            od = ortho_derivative(F, assume_quadratic=assume_quadratic)
        except (NotQuadratic, NotQuadraticApn):
            od = None
        if od is not None:
            p.ortho_diff_spectrum = diff_spectrum(od)
            p.ortho_walsh_spectrum = extended_walsh(od)
    if with_gamma3:
        p.gamma3_rank = gamma3_rank(F)
    return p


def partition(funcs, profiles=None, **opts):
    """Group functions by invariant profile.

    Distinct buckets certify pairwise inequivalence.  A bucket holding more
    than one distinct lookup table is only 'unresolved': the invariants do
    not prove equivalence.  Returns a list of dicts sorted by first member.
    """
    if profiles is None:
        profiles = [profile(F, **opts) for F in funcs]
    buckets = {}
    for i, (F, p) in enumerate(zip(funcs, profiles)):
        buckets.setdefault(p.key(), []).append(i)
    out = []
    for key, members in sorted(buckets.items(), key=lambda kv: kv[1][0]):
        distinct = {funcs[i].lut.tobytes() for i in members}
        out.append(
            {
                "members": members,
                "profile": profiles[members[0]],
                "unresolved": len(distinct) > 1,
            }
        )
    return out


# -- equivalence transformations (testing aids) --------------------------------


def random_affine_permutation(ctx, rng: random.Random):
    """A random bijective affine map as (LinearizedPoly, constant)."""
    while True:
        L = LinearizedPoly(ctx, [rng.randrange(ctx.order) for _ in range(ctx.n)])
        if L.is_permutation():
            return L, rng.randrange(ctx.order)


def ea_transform(F: VBF, outer, inner, affine=None):
    """A1(F(A2(x))) + A(x) for affine permutations A1, A2 and affine A."""
    ctx = F.ctx
    (L1, c1) = outer
    (L2, c2) = inner
    idx = np.arange(ctx.order, dtype=np.int64)
    inner_vals = L2.lut()[idx] ^ c2
    out = L1.lut()[F.lut[inner_vals]] ^ c1
    if affine is not None:
        LA, cA = affine
        out = out ^ LA.lut()[idx] ^ cA
    return VBF(ctx, out)


def random_ea_transform(F: VBF, rng: random.Random):
    ctx = F.ctx
    A1 = random_affine_permutation(ctx, rng)
    A2 = random_affine_permutation(ctx, rng)
    LA = LinearizedPoly(ctx, [rng.randrange(ctx.order) for _ in range(ctx.n)])
    return ea_transform(F, A1, A2, (LA, rng.randrange(ctx.order)))
