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
from .vbf import VBF, bilinear_table, ddt_row_blocks
from .linmap import LinearizedPoly


def _row_counts(values, width):
    """counts[i, v] = #{entries of values[i] equal to v} for values in
    range(width), every row by one bincount: row i's values are tagged with
    i * width."""
    tags = width * np.arange(len(values)).reshape((-1,) + (1,) * (values.ndim - 1))
    return np.bincount((values + tags).ravel(), minlength=len(values) * width).reshape(-1, width)


def _pairs(counts):
    """Per row of counts: its (value, count) pairs with count != 0, ascending."""
    rows, vals = np.nonzero(counts)
    pairs = list(zip(vals.tolist(), counts[rows, vals].tolist()))
    ends = np.cumsum(np.bincount(rows, minlength=len(counts))).tolist()
    return [tuple(pairs[lo:hi]) for lo, hi in zip([0] + ends[:-1], ends)]


def _walsh_spectra(ctx, luts):
    """extended_walsh of each LUT of a batch (shape (B, 2^n)), from one fwht over
    the int32 component signs of ctx.trace_forms, shape (B, 2^n - 1, 2^n)."""
    bits = ctx.trace_forms(luts[..., None]).swapaxes(-1, -2)[:, 1:]
    signs = 1 - 2 * bits.astype(np.int32, order="C")  # fwht works in place on a C-ordered array
    return _pairs(_row_counts(np.abs(fwht(signs)), ctx.order + 1))


def _diff_spectra(luts):
    """diff_spectrum of each LUT of a batch (shape (B, 2^n)), from one ddt_row_blocks walk."""
    width = luts.shape[-1] + 1
    acc = np.zeros((len(luts), width), dtype=np.int64)
    for _, C in ddt_row_blocks(luts):
        acc += _row_counts(C, width)
    return _pairs(acc)


def extended_walsh(F: VBF):
    """Multiset of |Walsh| over all components lambda != 0 and all u."""
    return _walsh_spectra(F.ctx, F.lut[None])[0]


def diff_spectrum(F: VBF):
    """Multiset of differential counts over all a != 0 and all b."""
    return _diff_spectra(F.lut[None])[0]


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
        while not np.array_equal(jumped := lab[lab], lab):
            lab = jumped


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
    [rank] = _gamma3_ranks(F.ctx, F.lut[None], _ortho_lut(F)[None])
    return rank


def _gamma3_supported(ctx):
    return ctx.n <= 6


def _check_gamma3_dim(ctx):
    if not _gamma3_supported(ctx):
        raise DimensionTooLarge("gamma3_rank is supported for n <= 6")


def _gamma3_ranks(ctx, luts, pis):
    """gamma3_rank of each quadratic APN function of a batch (shape (B, 2^n))
    from pis[i], the ortho-derivative LUT of F_i + F_i(0).  The signed graphs
    of all functions are labelled by one _component_labels call on their
    disjoint union, and each function's balanced components are counted
    among its own nodes."""
    n, q = ctx.n, ctx.order
    el = ctx.elements()
    tr = ctx.trace_table()
    p = pis.astype(np.int64)
    g = luts ^ luts[:, :1]
    # rep[i, w, a] = min of a + R_w, where R_w = {0} + pi_i^-1(w) and R_0 is the whole space
    rep = np.tile(el, (len(p), q, 1))
    np.minimum.at(rep, (np.arange(len(p))[:, None], p[:, 1:]), el[1:, None] ^ el)
    rep[:, 0] = 0
    rep = rep.reshape(len(p), -1)
    # ell[i, w, a] = l_w(a + rep_w(a)) and eps[i, a], flattened
    ell = tr[ctx.mulv(np.repeat(el, q), np.take_along_axis(g, rep ^ np.tile(el, q), axis=1))].ravel()
    eps = tr[ctx.mulv(p, g)].ravel()
    rep = rep.ravel()
    # the flat index (i q + w) q + a of the end w of each edge, one edge per a != 0 and
    # pair {w, w' = w + pi_i(a)}; its end w' is at e1 ^ (pi_i(a) << n)
    e1 = np.flatnonzero(el[:, None] < (el[:, None] ^ p[:, None, :]))
    a = e1 & (q - 1)
    ia = (e1 >> (2 * n) << n) | a
    e2 = e1 ^ (p.ravel()[ia] << n)
    flip = 1 ^ ell[e1] ^ ell[e2] ^ eps[ia]
    # vertex (w, rep) of function i is (i q + w) q + rep; vertices on no edge are
    # balanced components of one vertex and cancel.  In the 2-lift, node 2x + s is
    # vertex x with sign s, and a component is balanced iff its lift falls in two.
    s, t = 2 * (e1 - a + rep[e1]), 2 * (e2 - a + rep[e2]) + flip
    lab = _component_labels(np.concatenate([s, s + 1]), np.concatenate([t, t ^ 1]), 2 * rep.size)
    roots = np.flatnonzero(lab == np.arange(lab.size))
    # each of the two roots of a balanced lift has its other sign under the other root
    balanced = roots[lab[roots ^ 1] != roots]
    return (q * q - np.bincount(balanced >> (2 * n + 1), minlength=len(p)) // 2).tolist()


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


def _ortho_lut(F: VBF):
    """The ortho-derivative LUT of F + F(0)."""
    if F.algebraic_degree() > 2:
        raise NotQuadratic("requires a quadratic function")
    pi, [bad] = _normals(F.ctx, F.lut[None])
    if bad:
        raise NotQuadraticApn(f"derivative image at a={bad} is not a hyperplane")
    return pi[0]


def ortho_derivative(F: VBF) -> VBF:
    """For quadratic APN F with F(0)=0: the unique nonzero direction
    trace-orthogonal to the image of each linearized derivative."""
    if F(0) != 0:
        raise NotQuadraticApn("requires F(0) = 0")
    return VBF(F.ctx, _ortho_lut(F))


def _walsh_of_dims(n, dims):
    """extended_walsh of each quadratic function of a batch on GF(2^n) from
    its radical dims (shape (B, 2^n), index lambda), all counted by one
    bincount: a component whose radical has dimension k has 2^n - 2^(n-k)
    zeros and 2^(n-k) values of magnitude 2^((n+k)/2) (Berger, Canteaut,
    Charpin and Laigle-Chapuy, IEEE TIT 2006)."""
    q, k = 1 << n, np.arange(n + 1)
    support = q >> k
    # weights[k, v]: how many Walsh values v one component with radical dimension k has
    weights = np.zeros((n + 1, q + 1), dtype=np.int64)
    weights[k, 0] = q - support
    weights[k, 1 << ((n + k) // 2)] += support
    return _pairs(_row_counts(dims[:, 1:], n + 1) @ weights)


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
    and delta_rank compute them on their own.  A quadratic F is a batch of
    one for the kernels of classify.  assume_quadratic is ignored: the
    degree is read from F.
    """
    if F.algebraic_degree() > 2:
        return InvariantProfile(ext_walsh=extended_walsh(F), diff_spectrum=diff_spectrum(F))
    profiles, orthos = _quadratic_profiles([F])
    if with_gamma3:
        _add_gamma3([F], profiles, orthos)
    return profiles[0]


# A profile chunk holds about this many entries per function array; the largest,
# the Walsh signs of an ortho-derivative, has 2^n (2^n - 1) entries a function.
PROFILE_CHUNK = 1 << 16

# A batched GF(3) rank labels a union graph of about this many nodes, 2^(2n+1) a
# function.  CPU ms per rank (one core of a 2-core x86-64 machine), by functions
# per call: n = 5, 1: 0.18, 4: 0.12, 8: 0.13, 16: 0.15; n = 6, 1: 0.41, 2: 0.46,
# 8: 0.51.  A larger union leaves the cache; a smaller one pays call overhead.
GAMMA3_NODES = 1 << 13


def _quadratic_profiles(funcs):
    """Profiles of quadratic functions on one field, without GF(3) ranks, and
    per function the ortho-derivative LUT of F + F(0) in the narrowest
    unsigned type, or None where a derivative image is not a hyperplane.
    The LUTs are kept only where _add_gamma3 can read them (n <= 6): above,
    every entry is None.

    Functions go PROFILE_CHUNK / 4^n at a time (at least one), and a chunk
    makes one call per kernel: _normals for the ortho-derivatives,
    radical_dims for the extended Walsh spectra, one ddt_row_blocks walk for
    the differential spectra of the functions and of their ortho-derivatives,
    and one fwht for the ortho-derivatives' Walsh spectra.
    """
    if not funcs:
        return [], []
    ctx = funcs[0].ctx
    basis = 1 << np.arange(ctx.n, dtype=np.int64)
    step = max(1, PROFILE_CHUNK // (ctx.order * ctx.order))
    keep = _gamma3_supported(ctx)
    profiles, orthos = [], []
    for lo in range(0, len(funcs), step):
        luts = np.stack([F.lut for F in funcs[lo : lo + step]])
        pis, bads = _normals(ctx, luts)
        pis = pis[bads == 0].astype(np.min_scalar_type(ctx.order - 1))
        walsh = _walsh_of_dims(ctx.n, radical_dims(ctx, bilinear_table(luts, basis)))
        diffs = _diff_spectra(np.concatenate([luts, pis]))
        ortho = zip(pis, diffs[len(luts) :], _walsh_spectra(ctx, pis))
        for w, d, bad in zip(walsh, diffs, bads):
            p = InvariantProfile(ext_walsh=w, diff_spectrum=d)
            pi = None
            if not bad:
                pi, p.ortho_diff_spectrum, p.ortho_walsh_spectrum = next(ortho)
            profiles.append(p)
            orthos.append(pi if keep else None)
    return profiles, orthos


def _add_gamma3(funcs, profiles, orthos):
    """Fill in the GF(3) translate rank of each function with an
    ortho-derivative (see _quadratic_profiles), GAMMA3_NODES / 2^(2n+1) of
    them (at least one) per _gamma3_ranks call."""
    apns = [i for i, p in enumerate(profiles) if p.ortho_diff_spectrum is not None]
    if not apns:
        return
    ctx = funcs[0].ctx
    _check_gamma3_dim(ctx)
    step = max(1, GAMMA3_NODES // (2 * ctx.order * ctx.order))
    for lo in range(0, len(apns), step):
        part = apns[lo : lo + step]
        ranks = _gamma3_ranks(ctx, np.stack([funcs[i].lut for i in part]), np.stack([orthos[i] for i in part]))
        for i, rank in zip(part, ranks):
            profiles[i].gamma3_rank = rank


# GF(3) escalation runs only up to this many functions.  One translate rank is
# a signed-graph count on the ortho-derivative classify already derived, about
# 0.12 ms at n = 5 and 0.41 ms at n = 6 in unions of GAMMA3_NODES nodes (CPU,
# one core of a 2-core x86-64 machine); the limit stays because raising it would
# add ranks to the records of larger hit sets.
ESCALATE_LIMIT = 64


def classify(funcs):
    """Bucket quadratic functions on one field by invariant profile.  The
    degree is not checked: search hits and catalogued Form1s are quadratic.

    The profiles come a chunk at a time (_quadratic_profiles).  If a bucket
    is unresolved at n <= 6 and there are at most ESCALATE_LIMIT functions,
    the GF(3) translate rank of each quadratic APN function joins its
    profile, many functions a call (_add_gamma3), and they are partitioned
    again.
    Bucket counts are inequivalence lower bounds.
    Returns (buckets, profiles, escalated).
    """
    profiles, orthos = _quadratic_profiles(funcs)
    buckets = partition(funcs, profiles=profiles)
    unresolved = any(b["unresolved"] for b in buckets)
    escalated = unresolved and _gamma3_supported(funcs[0].ctx) and len(funcs) <= ESCALATE_LIMIT
    if escalated:
        _add_gamma3(funcs, profiles, orthos)
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
