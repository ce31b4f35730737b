"""Property tests: each shared kernel against its scalar definition."""

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apn_forge import apn, equiv, f2, linmap, spectral, vbf
from apn_forge.errors import NonBinaryCoefficients
from apn_forge.field import mk_field
from apn_forge.linmap import LinearizedPoly
from apn_forge.vbf import VBF, Form1, bilinear_table, ddt_row_blocks, deriv_basis_table, gram_elements

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


@PROPERTY
@given(st.data())
def test_radical_dims_match_v_lambda(data):
    n = data.draw(dims)
    ctx = mk_field(n)
    rows = data.draw(st.lists(elements(n, 2 * n), min_size=1, max_size=3))
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


@PROPERTY
@given(st.data())
def test_batch_rank_matches_rank(data):
    width = data.draw(st.integers(1, 32))
    nrows = data.draw(st.integers(1, 12))
    mats = data.draw(st.lists(elements(width, nrows), min_size=1, max_size=20))
    ranks = f2.batch_rank(np.array(mats, dtype=np.int64), width)
    assert ranks.tolist() == [f2.rank(m) for m in mats]


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


@PROPERTY
@given(form1_batches(st.sampled_from([4, 6, 8, 12])))
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


@PROPERTY
@given(st.data())
def test_lut_compose_and_apply_images_match_eval(data):
    n = data.draw(st.integers(2, 8))
    ctx = mk_field(n)
    L, M = (LinearizedPoly(ctx, data.draw(elements(n, n))) for _ in range(2))
    xs = list(range(ctx.order))
    assert L.lut().tolist() == [L.eval(x) for x in xs]
    assert [L.compose(M).eval(x) for x in xs] == [L.eval(M.eval(x)) for x in xs]
    images = linmap.basis_images(ctx, [L.coeffs, M.coeffs])
    assert linmap.apply_images(images, np.array(xs)).tolist() == [L.lut().tolist(), M.lut().tolist()]


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
