"""Property tests: each shared kernel against its scalar definition."""

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apn_forge import apn, f2, linmap, spectral, vbf
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
