"""Equivalence-class invariants used to separate APN functions.

Extended Walsh and differential spectra plus graph/difference-set ranks
distinguish CCZ classes; ortho-derivative spectra distinguish EA classes of
quadratic APN functions, which is what separates the representative lists
in practice.  Identical profiles never certify equivalence: partitioning
reports such buckets as unresolved.
"""

import random
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from . import f2
from .errors import DimensionTooLarge, NotQuadratic, NotQuadraticApn
from .spectral import fwht, radical_dims
from .vbf import VBF, bilinear_table, ddt_row_blocks, gram_elements
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


def _check_rank_dim(ctx):
    if ctx.n >= 8:
        raise DimensionTooLarge(f"rank invariants are unsupported for n={ctx.n} >= 8")


def gamma_rank(F: VBF):
    """F2-rank of the incidence matrix of the translated function graph."""
    _check_rank_dim(F.ctx)
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


def delta_rank(F: VBF):
    """Like gamma_rank but over the difference set {(a,b) : a != 0, DDT[a][b] > 0}."""
    _check_rank_dim(F.ctx)
    return _incidence_rank(_difference_set(F), 2 * F.ctx.n)


def _component_labels(s, t, size):
    """One label per node of the graph on range(size) with edges (s[i], t[i]):
    the root node of its connected component, so lab[root] == root.

    Each pass hooks the label of one end of every edge to the smaller of the
    two labels, then follows labels to their roots.
    """
    lab = np.arange(size)
    while True:
        ls, lt = lab[s], lab[t]
        if np.array_equal(ls, lt):
            return lab
        lo = np.minimum(ls, lt)
        np.minimum.at(lab, ls, lo)
        np.minimum.at(lab, lt, lo)
        while not np.array_equal(lab[lab], lab):
            lab = lab[lab]


def gamma3_rank(F: VBF):
    """GF(3)-rank of the graph-translate matrix restricted to difference rows.

    Rows are indexed by the difference set D of the graph (which transforms
    linearly under a CCZ map), columns by the whole plane (which transforms
    affinely), entry [d][y] = [d + y in graph].  Both index sets are only
    relabeled by an equivalence, so the rank over any coefficient field is a
    CCZ invariant.  The rank over GF(3) separates classes whose binary
    invariants all coincide (notably the two classes on GF(2^5), where every
    function is almost bent and all standard spectra are forced).

    Defined for quadratic APN F only (else NotQuadratic or NotQuadraticApn).
    Over GF(3), with G = F + F(0), pi its ortho-derivative, eps(a) =
    Tr(pi(a) G(a)) and R_v = {0} + pi^-1(v) (R_0 the whole space): Hadamard
    transforms inside row block a (the b with Tr(pi(a) b) = eps(a)) and column
    block v (the Walsh support of component v, a coset of R_v^perp) leave a
    signed graph on the vertices (v, a mod R_v), one edge per a != 0 and pair
    {w, w' = w + pi(a)}, of parity 1 + eps(a) + l_w(a + rep_w(a)) +
    l_w'(a + rep_w'(a)) with l_w(r) = Tr(w G(r)).  The rank is the number of
    vertices on edges minus the number of balanced components.
    """
    _check_gamma3_dim(F.ctx)
    return _gamma3(F, _ortho_lut(F))


def _check_gamma3_dim(ctx):
    if ctx.n > 6:
        raise DimensionTooLarge("gamma3_rank is supported for n <= 6")


def _gamma3(F: VBF, p):
    """gamma3_rank of quadratic APN F from p, the ortho-derivative LUT of F + F(0)."""
    ctx = F.ctx
    q = ctx.order
    el = ctx.elements()
    g = F.lut ^ F(0)
    tr = ctx.trace_table()
    # rep[w, a] = min of a + R_w, where R_w = {0} + pi^-1(w) and R_0 is the whole space
    rep = np.tile(el, (q, 1))
    np.minimum.at(rep, p[1:], el[1:, None] ^ el)
    rep[0] = 0
    ell = tr[ctx.mulv(el[:, None], g[rep ^ el])]
    eps = tr[ctx.mulv(p, g)]
    a, w = np.nonzero(el < (el ^ p[:, None]))  # one edge per a != 0 and pair {w, w + pi(a)}
    w2 = w ^ p[a]
    flip = 1 ^ ell[w, a] ^ ell[w2, a] ^ eps[a]
    # vertex (w, rep) is w * q + rep; vertices on no edge are balanced components of
    # one vertex and cancel.  In the 2-lift, node 2x + s is vertex x with sign s, and
    # a component is balanced iff its lift falls in two.
    s, t = 2 * (w * q + rep[w, a]), 2 * (w2 * q + rep[w2, a]) + flip
    lab = _component_labels(np.concatenate([s, s + 1]), np.concatenate([t, t ^ 1]), 2 * q * q)
    node = np.arange(lab.size)
    # each of the two roots of a balanced lift has its other sign under the other root
    balanced = np.count_nonzero((lab == node) & (lab[node ^ 1] != node)) // 2
    return int(q * q - balanced)


def _normals(ctx, luts):
    """For a batch of quadratic LUTs (shape (B, 2^n)): pi[B, 2^n], where
    pi[a] is the one nonzero c with Tr(c phi(a, e_j)) = 0 for every j (0 at
    a = 0), and per LUT the first a != 0 with no such single c, or 0.

    The c are the kernel vectors of the trace masks of phi(a, e_j), all a of
    all LUTs in one f2.batch_kernel_vector call.
    """
    n, q = ctx.n, ctx.order
    masks = ctx.trace_masks()[bilinear_table(luts, np.arange(q))]
    pi, ranks = f2.batch_kernel_vector(masks.reshape(-1, n), n)
    pi, bad = pi.reshape(-1, q), ranks.reshape(-1, q) != n - 1
    pi[:, 0] = 0
    bad[:, 0] = False
    return pi, np.where(bad.any(axis=1), bad.argmax(axis=1), 0)


def _ortho_rows(funcs):
    """Per function of funcs (quadratic, on one field): the ortho-derivative
    LUT of F + F(0) in the narrowest unsigned type, and the first a whose
    derivative image is not a hyperplane, or 0 (see _normals).  A _normals
    call holds about 2^16 / n entries of each (B, 2^n, n) elimination array."""
    if not funcs:
        return []
    ctx = funcs[0].ctx
    step = max(1, (1 << 16) // (ctx.order * ctx.n * ctx.n))
    rows = []
    for lo in range(0, len(funcs), step):
        pis, bads = _normals(ctx, np.stack([F.lut for F in funcs[lo : lo + step]]))
        rows += zip(pis.astype(np.min_scalar_type(ctx.order - 1)), bads.tolist())
    return rows


def _ortho_lut(F: VBF):
    """The ortho-derivative LUT of F + F(0)."""
    if F.algebraic_degree() > 2:
        raise NotQuadratic("requires a quadratic function")
    [(pi, bad)] = _ortho_rows([F])
    if bad:
        raise NotQuadraticApn(f"derivative image at a={bad} is not a hyperplane")
    return pi.astype(np.int64)


def ortho_derivative(F: VBF) -> VBF:
    """For quadratic APN F with F(0)=0: the unique nonzero direction
    trace-orthogonal to the image of each linearized derivative."""
    if F(0) != 0:
        raise NotQuadraticApn("requires F(0) = 0")
    return VBF(F.ctx, _ortho_lut(F))


def _walsh_of_dims(n, dims):
    """extended_walsh of a quadratic function on GF(2^n) from its radical
    dims (index lambda): a component whose radical has dimension k has
    2^n - 2^(n-k) zeros and 2^(n-k) values of magnitude 2^((n+k)/2) (Berger,
    Canteaut, Charpin and Laigle-Chapuy, IEEE TIT 2006)."""
    q = 1 << n
    acc = {}
    for k, count in zip(*np.unique(dims[1:], return_counts=True)):
        support = 1 << (n - int(k))
        for value, times in ((0, q - support), (1 << ((n + int(k)) // 2), support)):
            acc[value] = acc.get(value, 0) + int(count) * times
    return tuple(sorted((v, c) for v, c in acc.items() if c))


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
        return tuple(getattr(self, f.name) for f in fields(self))

    def as_dict(self):
        def ms(t):
            return {str(v): c for v, c in t} if isinstance(t, tuple) else t

        return {f.name: ms(getattr(self, f.name)) for f in fields(self)}


def profile(F: VBF, with_gamma3=False, assume_quadratic=False):
    """Compute the spectral invariants of one function.

    Ortho-derivative spectra are those of F + F(0), so adding a constant
    never changes the profile; they are filled in exactly when F is
    quadratic APN.  So is the GF(3) translate rank, when with_gamma3 asks
    for it: the escalation step for pairs the binary invariants cannot
    split.  The graph and difference-set ranks stay None here: gamma_rank
    and delta_rank compute them on their own.  A quadratic F's extended
    Walsh spectrum comes from its radical dims instead of a transform.
    assume_quadratic is ignored: the degree is read from F.
    """
    if F.algebraic_degree() > 2:
        return InvariantProfile(ext_walsh=extended_walsh(F), diff_spectrum=diff_spectrum(F))
    [(pi, bad)] = _ortho_rows([F])
    return _quadratic_profile(F, pi, bad, with_gamma3)


def _quadratic_profile(F: VBF, pi, bad, with_gamma3=False):
    """profile of quadratic F from its ortho-derivative row (see _ortho_rows)."""
    walsh = _walsh_of_dims(F.ctx.n, radical_dims(F.ctx, gram_elements(F)))
    p = InvariantProfile(ext_walsh=walsh, diff_spectrum=diff_spectrum(F))
    if not bad:
        od = VBF(F.ctx, pi)
        p.ortho_diff_spectrum = diff_spectrum(od)
        p.ortho_walsh_spectrum = extended_walsh(od)
        if with_gamma3:
            _check_gamma3_dim(F.ctx)
            p.gamma3_rank = _gamma3(F, pi)
    return p


# GF(3) escalation runs only up to this many functions.  One translate rank is
# a signed-graph count on the ortho-derivative classify already derived, about
# 0.23 ms at n = 5 and 0.46 ms at n = 6 (CPU, one core of a 2-core x86-64
# machine); the limit stays because raising it would add ranks to the records
# of larger hit sets.
ESCALATE_LIMIT = 64


def classify(funcs):
    """Bucket quadratic functions on one field by invariant profile.  The
    degree is not checked: search hits and catalogued Form1s are quadratic.

    The ortho-derivatives come a batch at a time (_ortho_rows), and each
    function is profiled from its own.  If a bucket is unresolved at n <= 6
    and there are at most ESCALATE_LIMIT functions, the GF(3) translate rank
    of each quadratic APN function joins its profile and they are
    partitioned again.  Bucket counts are inequivalence lower bounds.
    Returns (buckets, profiles, escalated).
    """
    rows = _ortho_rows(funcs)
    profiles = [_quadratic_profile(F, pi, bad) for F, (pi, bad) in zip(funcs, rows)]
    buckets = partition(funcs, profiles=profiles)
    unresolved = any(b["unresolved"] for b in buckets)
    escalated = unresolved and funcs[0].ctx.n <= 6 and len(funcs) <= ESCALATE_LIMIT
    if escalated:
        for F, p, (pi, bad) in zip(funcs, profiles, rows):
            if not bad:
                p.gamma3_rank = _gamma3(F, pi)
        buckets = partition(funcs, profiles=profiles)
    return buckets, profiles, escalated


def partition(funcs, profiles=None):
    """Group functions by invariant profile.

    Distinct buckets certify pairwise inequivalence.  A bucket holding more
    than one distinct lookup table is only 'unresolved': the invariants do
    not prove equivalence.  Returns a list of dicts sorted by first member.
    """
    if profiles is None:
        profiles = [profile(F) for F in funcs]
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
