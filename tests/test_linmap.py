import pytest

from apn_forge import linmap
from apn_forge.errors import ContextMismatch
from apn_forge.field import mk_field
from apn_forge.linmap import LinearizedPoly


def rand_linmap(ctx, rng):
    return LinearizedPoly(ctx, [rng.randrange(ctx.order) for _ in range(ctx.n)])


def test_eval_identity(ctx4):
    L = linmap.identity(ctx4)
    for x in range(ctx4.order):
        assert L.eval(x) == x


def test_eval_trace_at_one(ctx4):
    assert linmap.trace_map(ctx4).eval(1) == 0  # n even


def test_eval_x2_plus_x():
    ctx = mk_field(5)
    L = LinearizedPoly(ctx, [1, 1, 0, 0, 0])
    assert L.eval(1) == 0
    assert L.kernel() == [0, 1]


def test_f2_linearity(ctx6, rng):
    L = rand_linmap(ctx6, rng)
    for _ in range(50):
        x, y = rng.randrange(ctx6.order), rng.randrange(ctx6.order)
        assert L.eval(x ^ y) == L.eval(x) ^ L.eval(y)


def test_lut_matches_eval(ctx6, rng):
    L = rand_linmap(ctx6, rng)
    lut = L.lut()
    for x in range(ctx6.order):
        assert int(lut[x]) == L.eval(x)


def test_kernel_examples(ctx4):
    assert linmap.identity(ctx4).kernel() == [0]
    sq_plus_id = LinearizedPoly(ctx4, [1, 1, 0, 0])
    assert sq_plus_id.kernel() == [0, 1]
    tr = linmap.trace_map(ctx4)
    assert len(tr.kernel()) == 8
    assert tr.rank() == 1


def test_kernel_sorted(ctx6, rng):
    for _ in range(20):
        L = rand_linmap(ctx6, rng)
        k = L.kernel()
        assert k == sorted(k)
        assert all(L.eval(x) == 0 for x in k)


def test_is_permutation(ctx4):
    assert linmap.identity(ctx4).is_permutation()
    assert not LinearizedPoly(ctx4, [1, 1, 0, 0]).is_permutation()
    assert linmap.from_mask(ctx4, 0b10).is_permutation()


def test_rank_nullity():
    for n in (4, 6):
        ctx = mk_field(n)
        for mask in range(ctx.order):
            L = linmap.from_mask(ctx, mask)
            image = {L.eval(x) for x in range(ctx.order)}
            assert len(image) * len(L.kernel()) == ctx.order


def test_adjoint_fixed_points(ctx4):
    assert linmap.identity(ctx4).adjoint() == linmap.identity(ctx4)
    assert linmap.trace_map(ctx4).adjoint() == linmap.trace_map(ctx4)


def test_adjoint_trace_identity(ctx6, rng):
    L = linmap.scaled(ctx6, {1: ctx6.alpha})  # alpha * x^2
    adj = L.adjoint()
    for _ in range(100):
        x, y = rng.randrange(ctx6.order), rng.randrange(ctx6.order)
        assert ctx6.trace(ctx6.mul(L.eval(x), y)) == ctx6.trace(ctx6.mul(x, adj.eval(y)))


def test_adjoint_involution_and_rank(ctx6, rng):
    for _ in range(20):
        L = rand_linmap(ctx6, rng)
        adj = L.adjoint()
        assert adj.adjoint() == L
        assert adj.rank() == L.rank()
        assert adj.is_permutation() == L.is_permutation()


def test_compose_examples(ctx6, rng):
    L = rand_linmap(ctx6, rng)
    assert linmap.identity(ctx6).compose(L) == L
    sq = linmap.from_mask(ctx6, 0b10)
    assert sq.compose(sq) == linmap.from_mask(ctx6, 0b100)


def test_compose_evaluation_oracle(rng):
    ctx = mk_field(8)
    for _ in range(5):
        L, M = rand_linmap(ctx, rng), rand_linmap(ctx, rng)
        C = L.compose(M)
        for _ in range(20):
            x = rng.randrange(ctx.order)
            assert C.eval(x) == L.eval(M.eval(x))


def test_add_and_context_mismatch(ctx4, ctx6, rng):
    L, M = rand_linmap(ctx4, rng), rand_linmap(ctx4, rng)
    S = L + M
    assert S.coeffs == tuple(a ^ b for a, b in zip(L.coeffs, M.coeffs))
    other = linmap.identity(ctx6)
    with pytest.raises(ContextMismatch):
        L + other
    with pytest.raises(ContextMismatch):
        L.compose(other)


def test_text_roundtrip(ctx4, ctx6, rng):
    assert linmap.trace_map(ctx4).to_text() == "1,1,1,1"
    L = rand_linmap(ctx6, rng)
    assert LinearizedPoly.from_text(ctx6, L.to_text()) == L
