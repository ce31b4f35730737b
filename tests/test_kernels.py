"""Property tests: each shared kernel against its scalar definition."""

import functools
import math
import random
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apn_forge import apn, catalog, equiv, f2, linmap, search, spectral, vbf
from apn_forge.errors import (
    InternalCheckFailed,
    NonBinaryCoefficients,
    NotQuadratic,
    NotQuadraticApn,
    PreconditionViolated,
)
from apn_forge.field import mk_field
from apn_forge.linmap import LinearizedPoly
from apn_forge.vbf import VBF, Form1, bilinear_table, ddt_row_blocks, deriv_basis_table, gram_elements

import f3_oracle
import ortho_oracle

# Derandomized so every run tries the same examples; no example database is kept.
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)

dims = st.integers(2, 6)


def elements(n, size):
    return st.lists(st.integers(0, (1 << n) - 1), min_size=size, max_size=size)


@st.composite
def luts(draw):
    n = draw(dims)
    return VBF(mk_field(n), draw(elements(n, 1 << n)))


@st.composite
def form1s(draw):
    n = draw(dims)
    ctx = mk_field(n)
    return Form1(LinearizedPoly(ctx, draw(elements(n, n))), LinearizedPoly(ctx, draw(elements(n, n))))


def _gold(n):
    ctx = mk_field(n)
    return Form1(linmap.identity(ctx), linmap.zero(ctx))


@PROPERTY
@given(luts(), st.integers(1, 1 << 13))
def test_ddt_row_blocks_count_derivative_solutions(F, block):
    lut = F.lut.tolist()
    order = len(lut)
    with mock.patch.object(vbf, "DDT_BLOCK", block):
        blocks = list(ddt_row_blocks(F))
    assert [a0 for a0, _ in blocks] == list(np.cumsum([1] + [len(C) for _, C in blocks[:-1]]))
    rows = np.concatenate([C for _, C in blocks])
    assert rows.shape == (order - 1, order)
    for a in range(1, order):
        expect = [0] * order
        for x in range(order):
            expect[lut[x ^ a] ^ lut[x]] += 1
        assert rows[a - 1].tolist() == expect


@PROPERTY
@given(st.data())
def test_bilinear_table_is_the_four_term_formula(data):
    n = data.draw(dims)
    tables = data.draw(st.lists(elements(n, 1 << n), min_size=1, max_size=3))
    points = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=10))
    W = bilinear_table(np.array(tables), points)
    assert W.shape == (len(tables), len(points), n)
    for k, lut in enumerate(tables):
        for i, x in enumerate(points):
            for j in range(n):
                e = 1 << j
                assert W[k, i, j] == lut[x ^ e] ^ lut[x] ^ lut[e] ^ lut[0]


@PROPERTY
@given(luts())
def test_gram_is_the_bilinear_table_at_the_basis(F):
    basis = [1 << j for j in range(F.ctx.n)]
    assert np.array_equal(gram_elements(F), deriv_basis_table(F)[basis])


@pytest.mark.parametrize("n", range(2, 13))
@settings(PROPERTY, max_examples=10)
@given(data=st.data())
def test_trace_forms_pack_the_trace_of_every_product(n, data):
    # the definition: bit j of out[..., lam] is Tr(lam * values[..., j]), for every lam
    ctx = mk_field(n)
    m = data.draw(st.sampled_from([1, n]))
    values = np.array(data.draw(st.lists(elements(n, m), min_size=1, max_size=3)))
    values[0, 0] = 0
    lam = ctx.elements()[:, None]
    bits = ctx.trace_table()[ctx.mulv(lam, values[:, None, :])].astype(np.int64)
    got = ctx.trace_forms(values)
    assert got.dtype == np.min_scalar_type((1 << m) - 1)
    assert np.array_equal(got, (bits << np.arange(m)).sum(axis=-1))


@st.composite
def form1_batches(draw):
    """(n, rows): 1..3 Form1s on GF(2^n), n = 2..9, each row the coefficients of L1, then of L2."""
    n = draw(st.integers(2, 9))
    return n, draw(st.lists(elements(n, 2 * n), min_size=1, max_size=3))


@PROPERTY
@given(form1_batches())
@example((8, [[133, 246, 83, 32, 114, 54, 140, 199, 61, 154, 182, 208, 170, 81, 127, 29]]))
@example((9, [[1] + [0] * 8 + [1] * 9, [0] * 9 + [3, 0, 0, 0, 0, 0, 0, 0, 0]]))
def test_radical_dims_match_v_lambda(batch):
    n, rows = batch
    ctx = mk_field(n)
    funcs = [Form1(LinearizedPoly(ctx, c[:n]), LinearizedPoly(ctx, c[n:])).realize() for c in rows]
    got = spectral.radical_dims(ctx, np.stack([gram_elements(F) for F in funcs]))
    assert got.shape == (len(funcs), ctx.order)
    for F, row in zip(funcs, got):
        expect = [len(spectral.v_lambda(F, lam)).bit_length() - 1 for lam in range(ctx.order)]
        assert row.tolist() == expect


@PROPERTY
@given(st.data())
def test_rank_matches_reduced_basis(data):
    width = data.draw(st.integers(1, 70))
    rows = data.draw(st.lists(st.integers(0, (1 << width) - 1), max_size=30))
    assert f2.rank(rows) == len(f2.reduce_rows(rows))


@st.composite
def bit_matrices(draw):
    """(mats, width): 1..20 matrices of 1..80 packed rows of 1..64 bits, the top
    bit (bit 63 at width 64), zero rows and repeated rows drawn on purpose, and
    the widths at the edges of the uint8..uint64 row dtypes drawn often."""
    width = draw(st.one_of(st.sampled_from([8, 9, 16, 17, 32, 33, 63, 64]), st.integers(1, 64)))
    top = 1 << (width - 1)
    nrows = draw(st.integers(1, 80))
    pool = draw(st.lists(st.integers(0, 2 * top - 1), min_size=1, max_size=4))
    row = st.one_of(
        st.just(0), st.sampled_from(pool), st.integers(0, top - 1).map(lambda r: r | top), st.integers(0, 2 * top - 1)
    )
    return draw(st.lists(st.lists(row, min_size=nrows, max_size=nrows), min_size=1, max_size=20)), width


@PROPERTY
@given(bit_matrices())
@example(([[1 << 63, (1 << 63) | 1, 1]], 64))  # dependent rows, every one at bit 63 or 0
@example(([[1, 2, 3, 3, 1]], 2))  # more rows than columns
def test_batch_rank_matches_rank(system):
    mats, width = system
    ranks = f2.batch_rank(np.array(mats, dtype=np.uint64), width)
    assert ranks.tolist() == [f2.rank(m) for m in mats]


def test_batch_rank_limits():
    assert f2.batch_rank(np.zeros((0, 3), dtype=np.int64), 5).shape == (0,)
    with pytest.raises(PreconditionViolated):
        f2.batch_rank(np.zeros((1, 3), dtype=np.int64), 65)
    with pytest.raises(PreconditionViolated):
        f2.batch_solvable(np.zeros((1, 3), dtype=np.int64), [0], 64)


@PROPERTY
@given(st.data())
def test_transpose_swaps_bit_indices(data):
    nrows, ncols = data.draw(st.integers(1, 12)), data.draw(st.integers(0, 12))
    cols = data.draw(st.lists(elements(nrows, ncols), min_size=1, max_size=4))
    rows = f2.transpose(cols, nrows)
    assert rows.shape == (len(cols), nrows)
    for k, c in enumerate(cols):
        assert f2.transpose(c, nrows).tolist() == rows[k].tolist()
        for i in range(nrows):
            assert [(rows[k, i] >> j) & 1 for j in range(ncols)] == [(c[j] >> i) & 1 for j in range(ncols)]


@st.composite
def f2_systems(draw):
    """(rows, rhs, ncols) for B systems of nrows equations in ncols <= 8 unknowns,
    zero rows and repeated rows (rank deficiency) drawn often."""
    ncols = draw(st.integers(1, 8))
    nrows = draw(st.integers(1, 10))
    pool = draw(st.lists(st.integers(0, (1 << ncols) - 1), min_size=1, max_size=4))
    row = st.one_of(st.just(0), st.sampled_from(pool), st.integers(0, (1 << ncols) - 1))
    B = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(row, min_size=nrows, max_size=nrows), min_size=B, max_size=B))
    rhs = draw(st.lists(st.integers(0, (1 << nrows) - 1), min_size=B, max_size=B))
    return rows, rhs, ncols


@PROPERTY
@given(f2_systems())
@example(([[0, 0]], [0b10], 3))  # zero row, nonzero right-hand side
@example(([[0, 0]], [0], 3))
@example(([[0b101, 0b101]], [0b01], 3))  # repeated row, inconsistent
@example(([[1, 2, 3], [1, 2, 3]], [0b011, 0b111], 2))  # rank 2 of 3 rows: consistent, inconsistent
def test_batch_solvable_matches_brute_force(system):
    rows, rhs, ncols = system
    got = f2.batch_solvable(np.array(rows, dtype=np.int64), rhs, ncols)
    expect = [
        any(all((r & x).bit_count() % 2 == (b >> i) & 1 for i, r in enumerate(rs)) for x in range(1 << ncols))
        for rs, b in zip(rows, rhs)
    ]
    assert got.tolist() == expect


@PROPERTY
@given(form1s())
@example(_gold(4))
@example(_gold(5))
@example(Form1(linmap.identity(mk_field(6)), linmap.trace_map(mk_field(6))))
def test_delta_a_singletons_iff_unique_lambda(form):
    F = form.realize()
    single = all(len(spectral.delta_a(F, a)) == 2 for a in range(1, F.ctx.order))
    assert single == spectral.unique_lambda_check(form) == apn.is_apn_naive(F).is_apn


def _draw_rows(draw, n, rows):
    """rows coefficient rows of length n, all binary or all over the whole field."""
    top = draw(st.sampled_from([1, (1 << n) - 1]))
    return np.array(draw(st.lists(elements(n, n).map(lambda r: [c & top for c in r]), min_size=rows, max_size=rows)))


@st.composite
def form1_batches(draw, ns=st.integers(3, 8)):
    n = draw(ns)
    rows = draw(st.integers(1, 6))
    return mk_field(n), _draw_rows(draw, n, rows), _draw_rows(draw, n, rows)


def _forms(ctx, c1, c2):
    return [Form1(LinearizedPoly(ctx, a), LinearizedPoly(ctx, b)) for a, b in zip(c1, c2)]


def _batch_of(*forms):
    ctx = forms[0].ctx
    return ctx, np.array([f.L1.coeffs for f in forms]), np.array([f.L2.coeffs for f in forms])


_X9_TR3 = [Form1(linmap.trace_map(mk_field(n)), linmap.identity(mk_field(n))) for n in (4, 5, 8)]


@PROPERTY
@given(form1_batches())
@example(_batch_of(_gold(4), _X9_TR3[0], _gold(4)))
@example(_batch_of(_X9_TR3[1], _gold(5)))
@example(_batch_of(_X9_TR3[2]))
def test_form1_rank_scan_matches_naive(batch):
    ctx, c1, c2 = batch
    first = apn.form1_rank_scan(ctx, c1, c2)
    assert [bool(f < 0) for f in first] == [apn.is_apn_naive(F.realize()).is_apn for F in _forms(ctx, c1, c2)]


@PROPERTY
@given(form1_batches())
@example(_batch_of(_gold(6), Form1(linmap.identity(mk_field(6)), linmap.identity(mk_field(6)))))
def test_form1_rank_scan_first_bad_is_the_witness_direction(batch):
    ctx, c1, c2 = batch
    a_all, _ = apn._coset_reps(ctx)
    for f, form in zip(apn.form1_rank_scan(ctx, c1, c2), _forms(ctx, c1, c2)):
        w = apn.is_apn_quadratic(form).witness
        assert (None if f < 0 else int(a_all[f])) == (w and w.a)


def _reference_first_bad(form):
    """Index of the first cube-coset representative a with rank(D_a F) != n - 1,
    or -1: batch_rank of the realized function's derivative at every one."""
    ctx = form.ctx
    a_all, _ = apn._coset_reps(ctx)
    bad = f2.batch_rank(bilinear_table(form.realize().lut, a_all), ctx.n) != ctx.n - 1
    return int(bad.argmax()) if bad.any() else -1


@st.composite
def binary_form1_batches(draw):
    """Binary coefficient rows at n = 3..12: sparse masks (often APN), dense ones,
    and the masks 0 and 1."""
    n = draw(st.integers(3, 12))
    ctx = mk_field(n)
    sparse = st.lists(st.integers(0, n - 1), max_size=3).map(lambda ks: sum(1 << k for k in ks))
    mask = st.one_of(sparse, st.integers(0, ctx.order - 1), st.sampled_from([1, 0]))
    rows = draw(st.lists(st.tuples(mask, mask), min_size=1, max_size=6))
    return _batch_of(*(Form1(linmap.from_mask(ctx, a), linmap.from_mask(ctx, b)) for a, b in rows))


@PROPERTY
@given(binary_form1_batches())
@example(_batch_of(_gold(11)))
@example(_batch_of(_X9_TR3[2], Form1(linmap.zero(mk_field(8)), linmap.identity(mk_field(8)))))
@example(_batch_of(Form1(linmap.from_mask(mk_field(12), 0b101), linmap.identity(mk_field(12)))))
def test_form1_rank_scan_on_binary_rows_matches_full_walk(batch):
    ctx, c1, c2 = batch
    assert apn.form1_rank_scan(ctx, c1, c2).tolist() == [_reference_first_bad(f) for f in _forms(ctx, c1, c2)]


@pytest.mark.parametrize("n", range(3, 13))
def test_frobenius_leaders_cover_each_orbit_once(n):
    ctx = mk_field(n)
    _, v_all = apn._coset_reps(ctx)
    index = {int(v): i for i, v in enumerate(v_all)}
    seen = set()
    for i in apn._frobenius_leaders(ctx).tolist():
        orbit, v = set(), int(v_all[i])
        while index[v] not in orbit:
            orbit.add(index[v])
            v = ctx.mul(v, v)
        assert min(orbit) == i and not orbit & seen
        seen |= orbit
    assert seen == set(range(len(v_all)))


@pytest.mark.parametrize("n", [5, 6, 8])
def test_form1_rank_scan_walks_every_representative_of_a_non_binary_row(n):
    ctx = mk_field(n)
    rng = np.random.default_rng(n)
    c1, c2 = rng.integers(0, 2, size=(2, 40, n))
    c1[::2, n // 2] = rng.integers(2, ctx.order, size=20)  # one coefficient outside {0, 1}
    walked = []
    real = apn._first_bad

    def spy(ctx, c1, c2, vs, test):
        walked.append((c1.tolist(), len(vs)))
        return real(ctx, c1, c2, vs, test)

    with mock.patch.object(apn, "_first_bad", spy):
        first = apn.form1_rank_scan(ctx, c1, c2)
    _, v_all = apn._coset_reps(ctx)
    assert [c for rows, size in walked if size == len(v_all) for c in rows] == c1[::2].tolist()
    assert first.tolist() == [_reference_first_bad(f) for f in _forms(ctx, c1, c2)]


def _eval_at_basis(ctx, rows):
    return [[LinearizedPoly(ctx, r).eval(1 << j) for j in range(ctx.n)] for r in rows]


def _binary_masks_and_points(data, side):
    """(ctx, masks, points) at n = 2..20: masks with the zero map and the trace
    among them, and a (rows, cols) block of points with fewer values than
    masks, as many, or more."""
    n = data.draw(st.integers(2, 20))
    ctx = mk_field(n)
    masks = data.draw(st.lists(st.integers(0, ctx.order - 1), max_size=5)) + [0, ctx.order - 1]
    if side == "fewer rows":
        size = len(masks) + data.draw(st.integers(1, 6))
    elif side == "equal":
        size = len(masks)
    else:
        size = data.draw(st.integers(1, len(masks) - 1))
    cols = data.draw(st.sampled_from([c for c in range(1, size + 1) if size % c == 0]))
    xs = data.draw(st.lists(st.integers(0, ctx.order - 1), min_size=size, max_size=size))
    return ctx, np.array(masks), np.array(xs).reshape(size // cols, cols)


@PROPERTY
@given(st.data())
def test_basis_images_and_apply_binary_of_binary_rows_match_eval(data):
    for side in ("fewer rows", "equal", "more rows"):
        ctx, masks, points = _binary_masks_and_points(data, side)
        rows = [[(m >> k) & 1 for k in range(ctx.n)] for m in masks.tolist()]
        assert linmap.basis_images(ctx, rows).tolist() == _eval_at_basis(ctx, rows)
        out = linmap.apply_binary(ctx, masks, points)
        assert out.dtype == np.min_scalar_type(ctx.order - 1)
        want = [[[LinearizedPoly(ctx, r).eval(x) for x in line] for line in points.tolist()] for r in rows]
        assert out.tolist() == want
    assert linmap.basis_images(ctx, np.zeros((0, ctx.n), dtype=np.int64)).shape == (0, ctx.n)


@pytest.mark.parametrize("rows, points", [(1, 2), (3, 4), (4, 4), (5, 4), (64, 1)])
def test_apply_binary_builds_tables_over_the_smaller_side(rows, points):
    # per-mask tables (image_tables) only when there are fewer masks than points
    ctx = mk_field(9)
    masks, xs = np.arange(rows) * 7 % ctx.order, np.arange(points) * 5 + 1
    with mock.patch.object(linmap, "image_tables", wraps=linmap.image_tables) as spy:
        out = linmap.apply_binary(ctx, masks, xs)
    assert spy.called == (rows < points)
    assert out.tolist() == [[linmap.from_mask(ctx, int(m)).eval(int(x)) for x in xs] for m in masks]


@PROPERTY
@given(st.data())
def test_basis_images_with_one_coefficient_above_1_takes_field_products(data):
    n = data.draw(st.integers(2, 20))
    ctx = mk_field(n)
    rows = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=1, max_size=4))
    r, i = data.draw(st.integers(0, len(rows) - 1)), data.draw(st.integers(0, n - 1))
    rows[r][i] = data.draw(st.integers(2, ctx.order - 1))
    assert linmap.basis_images(ctx, rows).tolist() == _eval_at_basis(ctx, rows)


@st.composite
def x9_batches(draw):
    """x^9 + L(x^3) rows at n = 3..12 (L2(x) = x in every row), with L binary
    (x9_plus_L_binary) or over the whole field (x9_plus_L_full)."""
    n = draw(st.integers(3, 12))
    c1 = _draw_rows(draw, n, draw(st.integers(1, 6)))
    return mk_field(n), c1, np.array([[1] + [0] * (n - 1)] * len(c1))


@PROPERTY
@given(x9_batches())
@example(_batch_of(_X9_TR3[1], _X9_TR3[1]))
def test_form1_rank_scan_with_a_shared_l2_matches_full_walk(batch):
    ctx, c1, c2 = batch
    assert apn.form1_rank_scan(ctx, c1, c2).tolist() == [_reference_first_bad(f) for f in _forms(ctx, c1, c2)]


@st.composite
def mixed_form1_batches(draw):
    """Rows at n = 3..12, each binary, over the whole field, or x^9 + L(x^3)
    (L2(x) = x) with L binary or not, in one batch."""
    n = draw(st.integers(3, 12))
    ctx = mk_field(n)
    x = [1] + [0] * (n - 1)
    rows = []
    for kind in draw(st.lists(st.sampled_from(["binary", "field", "x9 binary", "x9 field"]), min_size=1, max_size=6)):
        top = 1 if "binary" in kind else ctx.order - 1
        c1, c2 = (draw(elements(n, n).map(lambda r: [c & top for c in r])) for _ in range(2))
        rows.append((c1, x if "x9" in kind else c2))
    return ctx, np.array([r[0] for r in rows]), np.array([r[1] for r in rows])


@PROPERTY
@given(mixed_form1_batches())
@example(_batch_of(_gold(3), Form1(linmap.zero(mk_field(3)), linmap.zero(mk_field(3)))))
@example(_batch_of(_X9_TR3[2], _gold(8), Form1(LinearizedPoly(mk_field(8), [3] * 8), linmap.identity(mk_field(8)))))
def test_form1_rank_scan_on_n_minus_1_columns_matches_the_n_column_walk(batch):
    # the walk ranks the n - 1 live columns; the reference ranks all n of the realized derivative
    ctx, c1, c2 = batch
    assert apn.form1_rank_scan(ctx, c1, c2).tolist() == [_reference_first_bad(f) for f in _forms(ctx, c1, c2)]


def test_form1_rank_scan_across_slices_with_and_without_a_shared_l2():
    # Slice 1 shares L2(x) = x; slice 2 starts with two equal L2 rows but does
    # not share; slice 3 shares another L2.  Rows come from a small pool so the
    # reference walks run once per distinct row pair.
    ctx = mk_field(5)
    rng = np.random.default_rng(15)
    pool1 = rng.integers(2, ctx.order, size=(24, 5))  # never binary: one full walk for all rows
    pool2 = rng.integers(0, ctx.order, size=(6, 5))
    size = apn.WALK_PAIRS
    c1 = pool1[rng.integers(0, len(pool1), size=3 * size - 100)]
    c2 = np.empty_like(c1)
    c2[:size] = [1, 0, 0, 0, 0]
    c2[size : 2 * size] = pool2[rng.integers(0, len(pool2), size=size)]
    c2[size : size + 2] = pool2[0]
    c2[2 * size :] = pool2[1]
    ref = {}
    for f in _forms(ctx, c1, c2):
        key = (f.L1.coeffs, f.L2.coeffs)
        if key not in ref:
            ref[key] = _reference_first_bad(f)
    expected = [ref[(tuple(a), tuple(b))] for a, b in zip(c1.tolist(), c2.tolist())]
    assert apn.form1_rank_scan(ctx, c1, c2).tolist() == expected


@st.composite
def mask_batches(draw, ns=st.integers(3, 14)):
    """(ctx, m1, m2): 0/1 rows at n = 3..14 as int masks, with one L2 mask
    shared by every row or one L2 mask per row (not all equal), fewer rows
    than WALK_PAIRS or more (drawn from a small pool), and the zero and
    all-ones masks on both sides."""
    n = draw(ns)
    ctx = mk_field(n)
    top = ctx.order - 1
    sparse = st.sets(st.integers(0, n - 1), max_size=3).map(lambda ks: sum(1 << k for k in ks))
    pool = draw(st.lists(st.one_of(sparse, st.integers(0, top)), min_size=1, max_size=8)) + [0, top]
    size = draw(st.sampled_from([draw(st.integers(1, 6)), apn.WALK_PAIRS + draw(st.integers(1, 300))]))
    rng = np.random.default_rng(draw(st.integers(0, 1 << 16)))
    m1 = np.concatenate([[0, top, 0, top], rng.choice(pool, size=size)])
    if draw(st.booleans()):
        m2 = np.full(len(m1), draw(st.sampled_from([0, 1, top] + pool)))
    else:
        m2 = np.concatenate([[0, top, top, 0], rng.choice(pool, size=size)])
    return ctx, m1.astype(np.int64), m2.astype(np.int64)


def _mask_example(n, size, shared):
    """A fixed mask_batches batch: random masks with the zero and all-ones ones first."""
    ctx = mk_field(n)
    rng = np.random.default_rng(n + size)
    ends = [0, ctx.order - 1]
    m1 = np.r_[ends, rng.integers(0, ctx.order, size=size)]
    m2 = np.full(len(m1), 1) if shared else np.r_[ends[::-1], rng.integers(0, ctx.order, size=size)]
    return ctx, m1, m2


def _bits(ctx, masks):
    return (masks[:, None] >> np.arange(ctx.n)) & 1


def _table_walk(ctx, c1, c2, test):
    """The first bad representative per row by the walk of 2-D coefficient
    rows over every representative, with no masks and no Frobenius leaders."""
    return apn._first_bad(ctx, c1, c2, apn._coset_reps(ctx)[1], test)


@pytest.mark.parametrize("scan", ["rank", "nonzero"])
@PROPERTY
@given(batch=mask_batches())
@example(batch=_mask_example(14, apn.WALK_PAIRS + 100, shared=True))
@example(batch=_mask_example(13, apn.WALK_PAIRS + 7, shared=False))
@example(batch=_mask_example(14, 6, shared=False))
def test_frobenius_scans_of_masks_match_coefficient_rows(scan, batch):
    ctx, m1, m2 = batch
    run, test = {
        "rank": (apn.form1_rank_scan, apn._rank_test(ctx)),
        "nonzero": (apn.nonzero_scan, apn._lemma1_test(ctx, [1])),
    }[scan]
    c1, c2 = _bits(ctx, m1), _bits(ctx, m2)
    first = run(ctx, m1, m2)
    assert first.tolist() == run(ctx, c1, c2).tolist() == _table_walk(ctx, c1, c2, test).tolist()


@PROPERTY
@given(mask_batches(st.sampled_from([3, 6, 9, 12])))
@example(_mask_example(12, apn.WALK_PAIRS + 50, shared=False))
def test_beta_scan_of_masks_matches_coefficient_rows(batch):
    ctx, m1, _ = batch
    c1 = _bits(ctx, m1)
    test = apn._lemma1_test(ctx, apn._subfield8_trace_zero(ctx)[:1])
    want = _table_walk(ctx, c1, np.zeros_like(c1), test).tolist()
    assert apn.beta_scan(ctx, m1).tolist() == apn.beta_scan(ctx, c1).tolist() == want


@PROPERTY
@given(mask_batches())
@example(_mask_example(14, apn.WALK_PAIRS + 100, shared=False))
@example(_mask_example(13, 6, shared=True))
def test_parity_filter_of_masks_matches_coefficient_rows(batch):
    ctx, m1, m2 = batch
    even = [(bin(a).count("1") + bin(b).count("1")) % 2 == 0 for a, b in zip(m1.tolist(), m2.tolist())]
    assert apn.parity_mask(m1, m2).tolist() == apn.parity_mask(_bits(ctx, m1), _bits(ctx, m2)).tolist() == even


@pytest.mark.parametrize("shape, n", [("x9_plus_L_binary", 3), ("x9_plus_L_binary", 11), ("form1_binary", 3), ("form1_binary", 7)])
def test_binary_candidates_round_trip_through_their_hex_text(shape, n):
    # index -> masks -> record text -> coefficients -> index, and the masks' LUTs are the forms' tables
    ctx = mk_field(n)
    job = search.SearchJob(field=f"n={n}", shape=shape)
    total = job.total_candidates()
    indices = np.unique(np.r_[0, 1, total - 1, np.random.default_rng(n).integers(0, total, size=40)])
    seen = []
    for idx, m1, m2, hexes in search._candidate_batches(job, ctx, indices, size=16):
        for i, a, b, text in zip(idx.tolist(), m1.tolist(), m2.tolist(), hexes):
            coeffs = [[int(h, 16) for h in side] for side in text]
            assert [len(c) for c in coeffs] == [n] * len(text) and max(map(max, coeffs)) <= 1
            masks = [sum(c << k for k, c in enumerate(side)) for side in coeffs]
            assert masks == ([a] if shape.startswith("x9") else [a, b])
            assert i == (a if shape.startswith("x9") else a | b << n)
            assert b == 1 or not shape.startswith("x9")
            assert [",".join(side) for side in text] == [linmap.from_mask(ctx, m).to_text() for m in masks]
            seen.append(i)
        luts = search._form1_luts(ctx, m1, m2)
        forms = [Form1(linmap.from_mask(ctx, a), linmap.from_mask(ctx, b)) for a, b in zip(m1.tolist(), m2.tolist())]
        assert luts.dtype == np.int64 and luts.tolist() == [f.realize().lut.tolist() for f in forms]
    assert seen == indices.tolist()


@st.composite
def form1s_by_l2_rank(draw):
    """Form1 at n = 4..10 with L1 binary or random, and L2 invertible,
    rank-deficient (a map composed with x^2 + x) or zero."""
    n = draw(st.integers(4, 10))
    ctx = mk_field(n)
    rand = st.builds(lambda c: LinearizedPoly(ctx, c), elements(n, n))
    L1 = draw(st.one_of(st.integers(0, ctx.order - 1).map(lambda m: linmap.from_mask(ctx, m)), rand))
    kind = draw(st.sampled_from(["invertible", "deficient", "zero"]))
    if kind == "invertible":
        L2 = draw(rand.filter(LinearizedPoly.is_permutation))
    elif kind == "deficient":
        L2 = draw(rand).compose(LinearizedPoly(ctx, [1, 1] + [0] * (n - 2)))
    else:
        L2 = linmap.zero(ctx)
    return Form1(L1, L2)


@PROPERTY
@given(form1s_by_l2_rank())
@example(_gold(10))
@example(_X9_TR3[2])
@example(Form1(linmap.trace_map(mk_field(6)), linmap.identity(mk_field(6))))
def test_tcondition_matches_lemma1_verdict_and_witness(form):
    # where lemma 1's condition holds at (a, y), t = y + y^-1 + y^-2 is a
    # trace-zero solution of the t-step, so the two routes stop at the same pair
    t, l1 = apn.is_apn_tcondition(form), apn.is_apn_lemma1(form)
    assert (t.is_apn, t.witness) == (l1.is_apn, l1.witness)


@PROPERTY
@given(form1s_by_l2_rank())
@example(_X9_TR3[2])
@example(Form1(linmap.trace_map(mk_field(6)), linmap.identity(mk_field(6))))
def test_form1_witnesses_come_from_point_evaluation(form):
    # F(x) at one point matches the realized table, and no Form1 route realizes the form for its witness
    lut = form.realize().lut
    assert [form(x) for x in range(form.ctx.order)] == lut.tolist()
    with mock.patch.object(Form1, "realize", side_effect=AssertionError("realized")):
        verdicts = [apn.is_apn_quadratic(form), apn.is_apn_lemma1(form), apn.is_apn_tcondition(form)]
    for v in verdicts:
        assert v.witness is None or v.witness.verifies(VBF(form.ctx, lut))


@pytest.mark.parametrize("n", range(2, 17))
def test_closed_form_t_solves_the_t_step(n):
    # t = y + y^-1 + y^-2 at every nonzero trace-zero y: Tr(t) = 0 and y^3 t = y^4 + y^2 + y
    ctx = mk_field(n)
    ys = ctx.trace_zero_nonzero()
    inv = ctx.invv(ys)
    t = ys ^ inv ^ ctx.mulv(inv, inv)
    assert not ctx.trace_table()[t].any()
    assert np.array_equal(ctx.mulv(ctx.pow_table(3)[ys], t), ctx.pow_table(4)[ys] ^ ctx.pow_table(2)[ys] ^ ys)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_tcondition_rejects_a_pair_off_the_trace_zero_points(n):
    ctx = mk_field(n)
    y = next(y for y in range(1, ctx.order) if ctx.trace(y))
    with mock.patch.object(apn, "_lemma1_pair", lambda form: (1, y)):
        with pytest.raises(InternalCheckFailed, match="t-step"):
            apn.is_apn_tcondition(_gold(n))


def _binary_filter_batch(n, rejected):
    """0/1 rows past n = 12: the zero maps, the x^9 + L(x^3) scan's hit at
    mask 0 (x^9, Gold), x^3 (Gold) and the x^9 + L(x^3) mask rejected."""
    ctx = mk_field(n)
    x9 = [Form1(linmap.from_mask(ctx, m), linmap.identity(ctx)) for m in (0, rejected)]
    return _batch_of(Form1(linmap.zero(ctx), linmap.zero(ctx)), x9[0], _gold(n), x9[1])


@PROPERTY
@given(form1_batches(st.sampled_from([4, 6, 8, 12])))
@example(_binary_filter_batch(14, 0b1111))  # nonzero rejects the mask at j = 215
@example(_binary_filter_batch(16, 0b111111))  # and this one at j = 7453
def test_filter_scans_match_quick_rejects(batch):
    ctx, c1, c2 = batch
    a_all, v_all = apn._coset_reps(ctx)
    parity = apn.parity_mask(c1, c2)
    nonzero = apn.nonzero_scan(ctx, c1, c2)
    beta = apn.beta_scan(ctx, c1) if ctx.n % 3 == 0 else [None] * len(c1)
    for form, p, j, f in zip(_forms(ctx, c1, c2), parity, nonzero, beta):
        if max(form.L1.coeffs + form.L2.coeffs) <= 1:
            assert p == (apn.quick_reject_parity(form) is not None)
        else:
            assert not p
            with pytest.raises(NonBinaryCoefficients):
                apn.quick_reject_parity(form)
        # the nonzero filter by its definition: first j with L1(v_j) + L2(v_j^3) = 0
        vals = form.L1.lut()[v_all] ^ form.L2.lut()[ctx.pow_table(3)[v_all]]
        zeros = np.flatnonzero(vals == 0)
        assert j == (zeros[0] if zeros.size else -1)
        reject = apn.quick_reject_nonzero(form)
        assert (reject and reject.data) == (None if j < 0 else {"j": j, "a": int(a_all[j])})
        if f is None:
            continue
        # the beta filter by its definition: first (t, i) with L1(beta_t v_i) = 0
        betas = apn._subfield8_trace_zero(ctx)
        zeros = [(t, i) for t, b in enumerate(betas) for i in np.flatnonzero(form.L1.lut()[ctx.mulcv(b, v_all)] == 0)]
        t, i = zeros[0] if zeros else (-1, 0)
        assert f == (t * len(v_all) + i if zeros else -1)
        reject = apn.quick_reject_beta(form)
        assert (reject and reject.data) == ({"a": int(a_all[i]), "beta": betas[t]} if zeros else None)


@pytest.mark.parametrize("n", [6, 12, 18])
def test_each_beta_is_a_cube_that_permutes_the_representatives(n):
    # 6 | n, so 21 | 2^n - 1: each beta_t is a cube and beta_t * {v_i} is the
    # set of all nonzero cubes, so beta_scan's first zero lies at t = 0
    ctx = mk_field(n)
    _, v_all = apn._coset_reps(ctx)
    for b in apn._subfield8_trace_zero(ctx):
        assert ctx.is_cube(b)
        assert np.array_equal(np.sort(ctx.mulcv(b, v_all)), np.sort(v_all))


def _lemma1_value(form, a, y):
    """L1(a^3 y) + L2(a^9 (y^4 + y^2 + y)) by scalar evaluation."""
    ctx = form.ctx
    w = ctx.pow(y, 4) ^ ctx.pow(y, 2) ^ y
    return form.L1.eval(ctx.mul(ctx.pow(a, 3), y)) ^ form.L2.eval(ctx.mul(ctx.pow(a, 9), w))


@PROPERTY
@given(form1_batches(st.sampled_from([6, 12])))
def test_filter_rejections_are_lemma1_zeros(batch):
    # the filters are Lemma 1 at a fixed trace-zero y: nonzero at y = 1, beta at y = beta_t
    ctx, c1, c2 = batch
    a_all, _ = apn._coset_reps(ctx)
    betas = apn._subfield8_trace_zero(ctx)
    assert ctx.trace(1) == 0 and not any(ctx.trace(b) for b in betas)
    for form, j, f in zip(_forms(ctx, c1, c2), apn.nonzero_scan(ctx, c1, c2), apn.beta_scan(ctx, c1)):
        if j >= 0:
            assert _lemma1_value(form, int(a_all[j]), 1) == 0
        if f >= 0:
            t, i = divmod(int(f), len(a_all))
            assert _lemma1_value(form, int(a_all[i]), betas[t]) == 0
        if j >= 0 or f >= 0:
            assert not apn.is_apn_lemma1(form).is_apn


def _lemma1_forms(n):
    """Binary pairs, x^9 + L(x^3) rows (L binary and not), non-binary pairs
    and L2 = 0 (x^3 among them), from a fixed seed."""
    ctx = mk_field(n)
    rng = np.random.default_rng(n)
    rand, bits = (lambda: rng.integers(0, ctx.order, size=n)), (lambda: rng.integers(0, 2, size=n))
    x, zero = [1] + [0] * (n - 1), [0] * n
    pairs = [(bits(), bits()) for _ in range(3)] + [(bits(), x), (x, zero)]
    pairs += [(rand(), rand()) for _ in range(4)] + [(rand(), x) for _ in range(3)] + [(rand(), zero) for _ in range(2)]
    return [Form1(LinearizedPoly(ctx, c1), LinearizedPoly(ctx, c2)) for c1, c2 in pairs]


@pytest.mark.parametrize("n", range(3, 10))
def test_lemma1_pair_is_the_first_zero_of_its_definition(n):
    # a in _coset_reps order, then y ascending over the nonzero trace-zero points
    ctx = mk_field(n)
    a_all, _ = apn._coset_reps(ctx)
    ys = ctx.trace_zero_nonzero().tolist()
    for form in _lemma1_forms(n):
        zeros = ((int(a), y) for a in a_all for y in ys if _lemma1_value(form, int(a), y) == 0)
        assert apn._lemma1_pair(form) == next(zeros, None)


def test_lemma1_pair_of_x9_plus_tr_x3_at_n16():
    ctx = mk_field(16)
    form = Form1(linmap.trace_map(ctx), linmap.identity(ctx))
    assert apn._lemma1_pair(form) == (512, 14947)
    assert _lemma1_value(form, 512, 14947) == 0


@PROPERTY
@given(st.data())
def test_lut_compose_and_apply_images_match_eval(data):
    # every point up to n = 12, 256 sampled ones above with the top bit on half;
    # n = 8, 9, 16 and 17 are the edges of the uint8, uint16 and uint32 images
    n = data.draw(st.one_of(st.sampled_from([8, 9, 16, 17]), st.integers(2, 20)))
    ctx = mk_field(n)
    L, M = (LinearizedPoly(ctx, data.draw(elements(n, n))) for _ in range(2))
    if n <= 12:
        xs = list(range(ctx.order))
    else:
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        xs = rng.integers(0, ctx.order, size=256) | np.arange(256) % 2 << (n - 1)
        xs = xs.tolist()
    assert L.lut()[xs].tolist() == [L.eval(x) for x in xs]
    assert [L.compose(M).eval(x) for x in xs] == [L.eval(M.eval(x)) for x in xs]
    images = linmap.basis_images(ctx, [L.coeffs, M.coeffs])
    tables = linmap.image_tables(images)
    assert linmap.apply_tables(tables, np.array(xs)).tolist() == [L.lut()[xs].tolist(), M.lut()[xs].tolist()]


@PROPERTY
@given(st.data())
def test_adjoint_matches_eval(data):
    # Tr(L(x) y) = Tr(x L*(y)) on every pair up to n = 5, on 16 x 16 sampled pairs above
    n = data.draw(st.integers(2, 10))
    ctx = mk_field(n)
    L = LinearizedPoly(ctx, data.draw(elements(n, n)))
    adj = L.adjoint()
    pts = range(ctx.order) if n <= 5 else data.draw(elements(n, 16))
    lx = [(x, L.eval(x)) for x in pts]
    for y in pts:
        ay = adj.eval(y)
        assert [ctx.trace(ctx.mul(v, y)) for _, v in lx] == [ctx.trace(ctx.mul(x, ay)) for x, _ in lx]
    assert adj.adjoint().coeffs == L.coeffs


@PROPERTY
@given(st.data())
def test_profile_is_ea_invariant(data):
    # a random EA transform, its constant included
    n = data.draw(st.integers(4, 6))
    ctx = mk_field(n)
    gold = data.draw(st.booleans())
    F = (_gold(n) if gold else Form1(*(LinearizedPoly(ctx, data.draw(elements(n, n))) for _ in range(2)))).realize()
    G = equiv.random_ea_transform(F, random.Random(data.draw(st.integers(0, 2**32 - 1))))
    with_gamma3 = data.draw(st.booleans())
    pf, pg = (equiv.profile(H, with_gamma3=with_gamma3, assume_quadratic=True) for H in (F, G))
    assert pf.key() == pg.key()
    assert (pf.gamma_rank, pf.delta_rank) == (None, None)
    assert (pf.gamma3_rank is not None) == (with_gamma3 and pf.ortho_diff_spectrum is not None)
    if pf.gamma3_rank is not None:
        assert pf.gamma3_rank == equiv.gamma3_rank(F)
    if gold:
        assert pf.ortho_diff_spectrum is not None


@PROPERTY
@given(st.data())
def test_incidence_rows_are_the_translates(data):
    n2 = 2 * data.draw(st.integers(2, 4))
    points = data.draw(st.lists(st.integers(0, (1 << n2) - 1), max_size=12))
    rows = dict(equiv._incidence_rows(points, n2))
    assert sorted(rows) == list(range(1 << n2))
    for x, row in rows.items():
        expect = 0
        for g in points:
            expect |= 1 << (x ^ g)
        assert row == expect


def _f3_rank_reference(A):
    """GF(3) rank by plain row reduction over Python lists."""
    rows = [[v % 3 for v in row] for row in A.tolist()]
    rank = 0
    for c in range(A.shape[1]):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] * p[c] % 3  # 1 and 2 are their own inverses
            if f:
                rows[i] = [(a - f * b) % 3 for a, b in zip(rows[i], p)]
        rank += 1
    return rank


@st.composite
def f3_matrices(draw):
    """Integer matrices of 1..200 rows and columns, word-edge widths included:
    dense with zero columns, all zero, or a product of rank at most k."""
    rows = draw(st.integers(1, 200))
    cols = draw(st.one_of(st.sampled_from([63, 64, 65, 128]), st.integers(1, 200)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["dense", "zero", "product"]))
    if kind == "zero":
        return np.zeros((rows, cols), dtype=np.int64)
    if kind == "product":
        k = draw(st.integers(1, 6))
        return rng.integers(-40, 41, size=(rows, k)) @ rng.integers(-40, 41, size=(k, cols))
    A = rng.integers(-300, 300, size=(rows, cols))
    A[:, rng.random(cols) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = 0
    return A


@PROPERTY
@given(f3_matrices())
@example(np.array([[129, 3, -3]]))  # all = 0 mod 3, none = 0 mod 256
@example(np.array([[1, 2], [2, 1], [1, 1]]))
@example(np.random.default_rng(0).integers(-300, 300, size=(200, 200)))
def test_f3_rank_matches_row_reduction(A):
    assert f3_oracle.f3_rank(A) == _f3_rank_reference(A)


@functools.cache
def _quadratic_apn(n):
    """The Gold functions and every APN x^9 + L(x^3) with 0/1 coefficients on GF(2^n)."""
    ctx = mk_field(n)
    golds = [vbf.power_map(ctx, (1 << i) + 1) for i in range(1, n) if math.gcd(i, n) == 1]
    rows = ([(m >> j) & 1 for j in range(n)] for m in range(ctx.order))
    form1 = (Form1(LinearizedPoly(ctx, row), linmap.identity(ctx)).realize() for row in rows)
    return golds + [F for F in form1 if apn.is_apn_naive(F).is_apn]


@settings(PROPERTY, max_examples=100)
@given(st.data())
def test_gamma3_rank_matches_elimination(data):
    # the signed-graph rank against elimination of the explicit |D| x 4^n matrix,
    # on quadratic APN functions and their EA transforms, constants included
    n = data.draw(st.integers(3, 5))
    F = data.draw(st.sampled_from(_quadratic_apn(n)))
    if data.draw(st.booleans()):
        F = equiv.random_ea_transform(F, random.Random(data.draw(st.integers(0, 2**32 - 1))))
    assert equiv.gamma3_rank(F) == f3_oracle.translate_rank(F)


@st.composite
def quadratics(draw, n):
    """A random quadratic LUT on GF(2^n): sum over i <= j of x_i x_j times a
    field element (x_i x_i = x_i, the affine part), plus a constant."""
    x = np.arange(1 << n)
    coeffs = iter(draw(elements(n, n * (n + 1) // 2 + 1)))
    lut = np.full(1 << n, next(coeffs))
    for i in range(n):
        for j in range(i + 1):
            lut ^= ((x >> i) & (x >> j) & 1) * next(coeffs)
    return VBF(mk_field(n), lut)


def _x9_reps(n):
    return [catalog.x9_rep(n, i).realize() for i in range(len(catalog.X9L_REPRESENTATIVES.get(n, ())))]


def _oracle_or_bad(G):
    """ortho_oracle's LUT of G, or the a its NotQuadraticApn names."""
    try:
        return ortho_oracle.ortho_derivative(G), 0
    except NotQuadraticApn as e:
        return None, int(str(e).split("a=")[1].split()[0])


@pytest.mark.parametrize("n", range(2, 9))
@settings(PROPERTY, max_examples=15)
@given(data=st.data())
def test_batched_ortho_derivative_matches_the_nullspace_loop(n, data):
    # Gold maps and catalogued x^9 + L(x^3) representatives, each possibly
    # under an EA transform with a constant, next to random quadratics that
    # are mostly not APN, all in one batch
    ctx = mk_field(n)
    apns = [vbf.power_map(ctx, (1 << i) + 1) for i in range(1, n) if math.gcd(i, n) == 1] + _x9_reps(n)
    funcs = data.draw(st.lists(st.sampled_from(apns), min_size=1, max_size=3))
    funcs = [equiv.random_ea_transform(F, random.Random(s)) if s else F
             for F, s in zip(funcs, data.draw(elements(8, len(funcs))))]
    funcs += data.draw(st.lists(quadratics(n), max_size=2))
    order = data.draw(st.permutations(range(len(funcs))))
    funcs = [funcs[i] for i in order]
    pis, bads = equiv._normals(ctx, np.stack([F.lut for F in funcs]))
    for F, pi, bad in zip(funcs, pis, bads):
        expect, expect_bad = _oracle_or_bad(VBF(ctx, F.lut ^ F(0)))
        assert bad == expect_bad
        if expect is not None:
            assert np.array_equal(pi, expect)
            assert np.array_equal(equiv.ortho_derivative(VBF(ctx, F.lut ^ F(0))).lut, expect)
            assert np.array_equal(equiv._ortho_lut(F), expect)
    assert any(b == 0 for b in bads)


def test_batched_ortho_derivative_names_the_first_bad_direction(ctx6):
    # x^9 and x^5 are quadratic and not APN at n = 6; x^7 is cubic
    for d in (9, 5):
        F = vbf.power_map(ctx6, d)
        _, a = _oracle_or_bad(F)
        assert a > 0
        with pytest.raises(NotQuadraticApn, match=f"^derivative image at a={a} is not a hyperplane$"):
            equiv.ortho_derivative(F)
        with pytest.raises(NotQuadraticApn, match=f"at a={a} "):
            equiv.gamma3_rank(F)
        assert equiv.profile(F).ortho_diff_spectrum is None
    with pytest.raises(NotQuadratic):
        equiv.ortho_derivative(vbf.power_map(ctx6, 7))


@PROPERTY
@given(st.data())
def test_kernel_vector_matches_nullspace(data):
    n = data.draw(st.integers(1, 12))
    mats = data.draw(st.lists(elements(n, n), min_size=1, max_size=6))
    xs, ranks = f2.batch_kernel_vector(np.array(mats, dtype=np.int64), n)
    for rows, x, r in zip(mats, xs, ranks):
        ns = f2.nullspace(rows, n)
        assert r == n - len(ns) == f2.rank(rows)
        if len(ns) == 1:
            assert x == ns[0]


def test_kernel_vector_limits():
    with pytest.raises(PreconditionViolated):
        f2.batch_kernel_vector(np.zeros((1, 2), dtype=np.int64), 54)
    x, ranks = f2.batch_kernel_vector(np.zeros((0, 3), dtype=np.int64), 3)
    assert x.shape == ranks.shape == (0,)


@pytest.mark.parametrize("n", range(2, 11))
@settings(PROPERTY, max_examples=10)
@given(data=st.data())
def test_walsh_spectrum_from_radical_dims_matches_the_transform(n, data):
    F = data.draw(quadratics(n))
    [walsh] = equiv._walsh_of_dims(n, spectral.radical_dims(F.ctx, gram_elements(F)[None]))
    assert walsh == equiv.extended_walsh(F)
    assert equiv.profile(F, assume_quadratic=True).ext_walsh == equiv.extended_walsh(F)


@PROPERTY
@given(st.data())
def test_ddt_row_blocks_of_a_batch_are_the_blocks_of_each_lut(data):
    n = data.draw(dims)
    tables = np.array(data.draw(st.lists(elements(n, 1 << n), min_size=1, max_size=4)))
    with mock.patch.object(vbf, "DDT_BLOCK", data.draw(st.integers(1, 1 << 10))):
        batch = [(a0, C) for a0, C in ddt_row_blocks(tables)]
    whole = np.concatenate([C for _, C in batch], axis=-2)
    assert [a0 for a0, _ in batch] == list(np.cumsum([1] + [C.shape[-2] for _, C in batch[:-1]]))
    for lut, C in zip(tables, whole):
        assert np.array_equal(C, np.concatenate([C1 for _, C1 in ddt_row_blocks(VBF(mk_field(n), lut))]))


@pytest.mark.parametrize("n", range(3, 9))
@settings(PROPERTY, max_examples=10)
@given(data=st.data())
def test_batched_reverification_matches_the_naive_oracle(n, data):
    # mixed batches: Gold maps and their EA transforms (APN) next to random
    # Form1s (mostly not APN) and random tables
    ctx = mk_field(n)
    golds = [_gold(n).realize()] + [equiv.random_ea_transform(_gold(n).realize(), random.Random(s))
                                    for s in data.draw(elements(8, 2))]
    forms = [Form1(LinearizedPoly(ctx, c1), LinearizedPoly(ctx, c2)).realize()
             for c1, c2 in data.draw(st.lists(st.tuples(elements(n, n), elements(n, n)), max_size=4))]
    funcs = data.draw(st.permutations(golds + forms))
    luts = np.stack([F.lut for F in funcs])
    verdicts = [apn.is_apn_naive(F) for F in funcs]
    naive = [v.is_apn for v in verdicts]
    assert apn.batch_is_apn_naive(luts).tolist() == naive
    assert apn.batch_is_apn_quadratic(luts).tolist() == naive
    with mock.patch.object(apn, "DDT_BLOCK", data.draw(st.integers(1, 1 << 12))):
        assert apn.batch_is_apn_naive(luts).tolist() == naive
    # blocks of a few directions: LUTs leave the kernel walk at their first bad a
    with mock.patch.object(apn, "_CHUNK", data.draw(st.integers(1, 64))):
        assert apn.batch_is_apn_quadratic(luts).tolist() == naive
        for F, v in zip(funcs, verdicts):
            w = apn.is_apn_quadratic(F).witness
            assert (w and w.a) == (v.witness and v.witness.a)
    if n <= 6:
        tables = np.array(data.draw(st.lists(elements(n, 1 << n), min_size=1, max_size=3)))
        assert apn.batch_is_apn_naive(tables).tolist() == [apn.is_apn_naive(VBF(ctx, t)).is_apn for t in tables]


@PROPERTY
@given(st.data())
def test_form1_luts_are_the_realized_tables(data):
    n = data.draw(st.integers(2, 8))
    ctx = mk_field(n)
    rows = data.draw(st.lists(st.tuples(elements(n, n), elements(n, n)), min_size=1, max_size=4))
    luts = search._form1_luts(ctx, np.array([r[0] for r in rows]), np.array([r[1] for r in rows]))
    for (c1, c2), lut in zip(rows, luts):
        assert np.array_equal(lut, Form1(LinearizedPoly(ctx, c1), LinearizedPoly(ctx, c2)).realize().lut)


@pytest.mark.parametrize("n", [6, 12, 18])
def test_subfield8_trace_zero_is_cached_and_the_roots_of_y3_y_1(n):
    ctx = mk_field(n)
    roots = apn._subfield8_trace_zero(ctx)
    assert isinstance(roots, tuple) and apn._subfield8_trace_zero(ctx) is roots
    assert len(set(roots)) == 3 and list(roots) == sorted(roots)
    assert all(ctx.pow(y, 3) ^ y ^ 1 == 0 for y in roots)


def _naive_diff_spectrum(lut):
    """Multiset of DDT[a][b] over a != 0 and all b, one direction at a time."""
    x = np.arange(len(lut))
    counts = np.concatenate([np.bincount(lut[x ^ a] ^ lut, minlength=len(lut)) for a in range(1, len(lut))])
    return tuple((int(v), int(c)) for v, c in zip(*np.unique(counts, return_counts=True)))


def _naive_ext_walsh(ctx, lut):
    """Multiset of |Walsh| over the components lambda != 0, one fwht of int64 signs each."""
    values = []
    for lam in range(1, ctx.order):
        signs = np.array([1 - 2 * ctx.trace(ctx.mul(lam, int(y))) for y in lut], dtype=np.int64)
        values.append(np.abs(spectral.fwht(signs)))
    return tuple((int(v), int(c)) for v, c in zip(*np.unique(np.concatenate(values), return_counts=True)))


@pytest.mark.parametrize("n", [4, 5, 6])
@settings(PROPERTY, max_examples=8)
@given(data=st.data())
def test_batched_profiles_match_per_function_oracles(n, data):
    # mixed batches of APN functions (possibly EA-transformed, constants
    # included), random quadratics and, at n = 6, the quadratic non-APN x^9;
    # the batch is 1 below, at or 1 above a multiple of the profile chunk
    ctx = mk_field(n)
    apns = _quadratic_apn(n)
    step = data.draw(st.integers(1, 3))
    size = max(1, step * data.draw(st.integers(1, 2)) + data.draw(st.integers(-1, 1)))
    funcs = [data.draw(st.sampled_from(apns)) for _ in range(size)]
    funcs = [equiv.random_ea_transform(F, random.Random(s)) if s else F for F, s in zip(funcs, data.draw(elements(8, size)))]
    funcs += data.draw(st.lists(quadratics(n), max_size=2)) + ([vbf.power_map(ctx, 9)] if n == 6 else [])
    funcs = [funcs[i] for i in data.draw(st.permutations(range(len(funcs))))]
    with mock.patch.object(equiv, "PROFILE_CHUNK", step * ctx.order**2), \
            mock.patch.object(vbf, "DDT_BLOCK", data.draw(st.integers(1, 1 << 10))):
        profiles, orthos = equiv._quadratic_profiles(funcs)
    for F, p, pi in zip(funcs, profiles, orthos):
        assert p.diff_spectrum == _naive_diff_spectrum(F.lut)
        assert p.ext_walsh == _naive_ext_walsh(ctx, F.lut)
        expect, _ = _oracle_or_bad(VBF(ctx, F.lut ^ F(0)))
        if expect is None:
            assert pi is p.ortho_diff_spectrum is p.ortho_walsh_spectrum is None
            continue
        assert np.array_equal(pi, expect)
        assert p.ortho_diff_spectrum == _naive_diff_spectrum(expect)
        assert p.ortho_walsh_spectrum == _naive_ext_walsh(ctx, expect)
    assert sum(pi is None for pi in orthos) == sum(p.ortho_diff_spectrum is None for p in profiles) >= (n == 6)


@settings(PROPERTY, max_examples=25)
@given(st.data())
def test_union_graph_gamma3_ranks_match_elimination(data):
    # ranks of a mixed batch from union graphs of 1 to 3 functions, with the
    # APN count 1 below, at or 1 above a multiple of that; the non-APN rows
    # get none
    n = data.draw(st.integers(3, 5))
    ctx = mk_field(n)
    step = data.draw(st.integers(1, 3))
    size = max(1, step * data.draw(st.integers(1, 2)) + data.draw(st.integers(-1, 1)))
    funcs = [data.draw(st.sampled_from(_quadratic_apn(n))) for _ in range(size)]
    funcs = [equiv.random_ea_transform(F, random.Random(s)) if s else F for F, s in zip(funcs, data.draw(elements(8, size)))]
    funcs += data.draw(st.lists(quadratics(n), max_size=2))
    funcs = [funcs[i] for i in data.draw(st.permutations(range(len(funcs))))]
    profiles, orthos = equiv._quadratic_profiles(funcs)
    with mock.patch.object(equiv, "GAMMA3_NODES", step * 2 * ctx.order**2), \
            mock.patch.object(equiv, "_gamma3_ranks", wraps=equiv._gamma3_ranks) as ranks:
        equiv._add_gamma3(funcs, profiles, orthos)
    apns = sum(pi is not None for pi in orthos)
    assert ranks.call_count == -(-apns // step)
    for F, p, pi in zip(funcs, profiles, orthos):
        assert p.gamma3_rank == (None if pi is None else f3_oracle.translate_rank(F))


def test_union_graph_gamma3_ranks_n6(ctx6):
    # the two n = 6 classes and the non-APN x^9, ranked by one labelling
    funcs = [vbf.power_map(ctx6, 9), catalog.x9_rep(6, 1).realize(), vbf.power_map(ctx6, 3)]
    profiles, orthos = equiv._quadratic_profiles(funcs)
    with mock.patch.object(equiv, "GAMMA3_NODES", 2 * 2 * ctx6.order**2), \
            mock.patch.object(equiv, "_component_labels", wraps=equiv._component_labels) as labels:
        equiv._add_gamma3(funcs, profiles, orthos)
    assert labels.call_count == 1
    assert [p.gamma3_rank for p in profiles] == [None] + [f3_oracle.translate_rank(F) for F in funcs[1:]]


def _check_field_axioms(ctx, xs, e):
    """The field laws at the points xs (at least three) of ctx and the exponent
    e >= 0: scalar operations, the vector helpers against them, and the trace
    masks' identity Tr(x w) = parity(x & T[w])."""
    mul, x, y, z = ctx.mul, *xs[:3]
    assert mul(mul(x, y), z) == mul(x, mul(y, z))
    assert mul(x, y) == mul(y, x)
    assert mul(x, y ^ z) == mul(x, y) ^ mul(x, z)
    assert mul(x, 1) == x and mul(x, 0) == 0
    assert ctx.pow(x ^ y, 2) == mul(x ^ y, x ^ y) == mul(x, x) ^ mul(y, y)
    assert ctx.trace(x ^ y) == ctx.trace(x) ^ ctx.trace(y) and ctx.trace(1) == ctx.n % 2
    T = ctx.trace_masks()
    for v in xs:
        power, base, k = 1, v, e  # v^e by square-and-multiply
        while k:
            power, base, k = mul(power, base) if k & 1 else power, mul(base, base), k >> 1
        assert ctx.pow(v, e) == power
        assert ctx.pow(v, ctx.order) == v
        if v:
            assert mul(v, ctx.inv(v)) == 1 and ctx.pow(v, -1) == ctx.inv(v)
            assert mul(ctx.pow(v, e), ctx.pow(v, -e)) == 1
        for w in xs:
            assert ctx.trace(mul(v, w)) == (v & int(T[w])).bit_count() % 2
    arr = np.array(xs, dtype=np.int64)
    assert ctx.mulv(arr, arr[::-1]).tolist() == [mul(a, b) for a, b in zip(xs, xs[::-1])]
    assert ctx.mulcv(x, arr).tolist() == [mul(x, b) for b in xs]
    assert ctx.invv(arr[arr != 0]).tolist() == [ctx.inv(v) for v in xs if v]


@pytest.mark.parametrize("n", range(2, 17))
@settings(PROPERTY, max_examples=10)
@given(data=st.data())
def test_field_axioms(n, data):
    xs = data.draw(elements(n, 6))
    _check_field_axioms(mk_field(n), xs, data.draw(st.integers(0, 1 << (n + 1))))


def test_field_axioms_n20():
    ctx = mk_field(20)
    xs = [0x5A5A5, ctx.alpha, 0xFFFFF, 0, 1, 0x80000, 0x12345, ctx.mult_order - 1]
    _check_field_axioms(ctx, xs, 0x1F0F0F)
