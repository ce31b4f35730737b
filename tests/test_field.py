import numpy as np
import pytest

from apn_forge import conway
from apn_forge.errors import DivisionByZero, NotADivisor, ReducibleModulus, UnsupportedDegree
from apn_forge.field import FieldCtx, mk_field, parse_field_spec


def test_default_modulus_is_conway():
    assert mk_field(6).modulus == 0x5B
    assert mk_field(4).modulus == 0x13
    assert mk_field(8).modulus == 0x11D


def test_conway_table_rederives():
    table = conway.compute_conway(20)
    for n in range(2, 21):
        assert table[n] == conway.CONWAY_GF2[n]


def test_conway_entries_primitive_and_compatible():
    for n in range(2, 21):
        f = conway.CONWAY_GF2[n]
        assert conway.is_primitive_poly(f, n)
        assert conway.is_irreducible_poly(f, n)


def test_default_modulus_ignores_environment(tmp_path, monkeypatch):
    path = tmp_path / "table.txt"
    other = {  # x^2 + x + 1 is the only irreducible quadratic
        n: next(f for f in range(1 << n | 1, 2 << n, 2) if f != conway.CONWAY_GF2[n] and conway.is_irreducible_poly(f, n))
        for n in range(3, 21)
    }
    path.write_text("".join(f"{n} 0x{f:X}\n" for n, f in other.items()))
    monkeypatch.setenv("APN_FORGE_CONWAY_TABLE", str(path))
    for n in range(2, 21):
        assert FieldCtx(n).modulus == conway.CONWAY_GF2[n]  # bypass mk_field cache


def test_custom_modulus_accepted():
    ctx = mk_field(4, 0x13)
    assert ctx.modulus == 0x13


def test_non_primitive_modulus_finds_a_generator():
    # x^4+x^3+x^2+x+1 is irreducible, but x has order 5 modulo it
    ctx = FieldCtx(4, 0x1F)
    assert ctx.alpha == 0x3  # x + 1, the smallest generator
    assert sorted(int(v) for v in ctx.antilog_table[:15]) == list(range(1, 16))
    assert all(ctx.mul(a, b) == conway.poly_mulmod(a, b, 0x1F, 4) for a in range(16) for b in range(16))


def test_reducible_modulus_rejected():
    with pytest.raises(ReducibleModulus):
        FieldCtx(4, 0x18)  # x^4 + x^3 = x^3 (x + 1)


def test_degree_bounds():
    with pytest.raises(UnsupportedDegree):
        mk_field(1)
    with pytest.raises(UnsupportedDegree):
        mk_field(21)


def test_mul_example_n4(ctx4):
    # alpha * alpha^3 = alpha^4 = x + 1 under x^4 + x + 1
    assert ctx4.mul(ctx4.alpha, ctx4.pow(ctx4.alpha, 3)) == 0x3


def test_char2_addition(ctx6):
    for a in range(ctx6.order):
        assert ctx6.add(a, a) == 0


def test_inverse_law(ctx8, rng):
    for _ in range(50):
        a = rng.randrange(1, ctx8.order)
        assert ctx8.mul(a, ctx8.inv(a)) == 1
    with pytest.raises(DivisionByZero):
        ctx8.inv(0)


def test_pow_conventions(ctx5):
    assert ctx5.pow(0, 0) == 1
    assert ctx5.pow(0, 7) == 0
    a = ctx5.alpha
    assert ctx5.pow(a, ctx5.mult_order) == 1
    assert ctx5.pow(a, -1) == ctx5.inv(a)


def test_trace_values():
    assert mk_field(4).trace(1) == 0
    assert mk_field(5).trace(1) == 1


def test_trace_conjugate_sum_oracle(ctx8):
    # independent oracle: sum of the 8 Frobenius conjugates via repeated mul
    for x in (ctx8.alpha, 0x35, 0xF1):
        acc, t = 0, x
        for _ in range(8):
            acc ^= t
            t = ctx8.mul(t, t)
        assert acc in (0, 1)
        assert ctx8.trace(x) == acc


def test_trace_balanced():
    for n in (2, 3, 4, 5, 6, 7, 8):
        ctx = mk_field(n)
        assert int((ctx.trace_table() == 0).sum()) == ctx.order // 2


def test_trace_of_square(ctx6):
    for x in range(ctx6.order):
        assert ctx6.trace(ctx6.mul(x, x)) == ctx6.trace(x)


def test_frobenius_linearity():
    for n in (4, 8):
        ctx = mk_field(n)
        xs = np.arange(ctx.order, dtype=np.int64)
        sq = ctx.pow_table(2)
        pairs = xs[:, None] ^ xs[None, :]
        assert np.array_equal(sq[pairs], sq[xs][:, None] ^ sq[xs][None, :])


def test_rel_trace_identity_cases(ctx6):
    for x in range(ctx6.order):
        assert ctx6.rel_trace(6, x) == x
        assert ctx6.rel_trace(1, x) == ctx6.trace(x)


def test_rel_trace_subfield_membership(ctx6):
    for x in range(ctx6.order):
        y = ctx6.rel_trace(3, x)
        assert ctx6.pow(y, 8) == y
    xs = np.arange(ctx6.order, dtype=np.int64)
    assert ctx6.rel_tracev(3, xs).tolist() == [ctx6.rel_trace(3, x) for x in range(ctx6.order)]


def test_rel_trace_transitivity():
    for n, m in ((6, 3), (8, 4)):
        ctx = mk_field(n)
        for x in range(ctx.order):
            y = ctx.rel_trace(m, x)
            # subfield trace of y computed inside the big field
            acc, t = 0, y
            for _ in range(m):
                acc ^= t
                t = ctx.mul(t, t)
            assert acc == ctx.trace(x)


def test_rel_trace_divisor_check(ctx6):
    with pytest.raises(NotADivisor):
        ctx6.rel_trace(4, 1)
    with pytest.raises(NotADivisor):
        ctx6.rel_tracev(4, np.arange(ctx6.order))


def test_cube_predicates(ctx4, ctx5):
    a = ctx4.alpha
    assert ctx4.is_cube(ctx4.pow(a, 3))
    assert not ctx4.is_cube(a)  # alpha^k with k=5: alpha^5 != 1
    assert ctx4.cube_roots(0) == [0]
    for x in range(ctx4.order):
        roots = ctx4.cube_roots(x)
        assert all(ctx4.pow(r, 3) == x for r in roots)
        if x and ctx4.is_cube(x):
            assert len(roots) == 3
    for x in range(1, ctx5.order):
        roots = ctx5.cube_roots(x)
        assert len(roots) == 1 and ctx5.pow(roots[0], 3) == x


def test_k_value():
    assert mk_field(6).k == 21
    assert mk_field(5).k is None


def test_log_antilog_inverse(ctx8):
    for x in range(1, ctx8.order):
        assert int(ctx8.antilog_table[int(ctx8.log_table[x])]) == x


def test_trace_masks(ctx6, rng):
    T = ctx6.trace_masks()
    for _ in range(100):
        x = rng.randrange(ctx6.order)
        w = rng.randrange(ctx6.order)
        assert ctx6.trace(ctx6.mul(x, w)) == (int(T[w]) & x).bit_count() % 2


def test_field_spec_parsing():
    ctx = parse_field_spec("n=6,mod=0x5B")
    assert ctx.n == 6 and ctx.modulus == 0x5B
    assert parse_field_spec("n=5").n == 5
    with pytest.raises(UnsupportedDegree):
        parse_field_spec("mod=0x13")


def test_vector_helpers_match_scalar(ctx6, rng):
    xs = np.array([rng.randrange(ctx6.order) for _ in range(64)])
    ys = np.array([rng.randrange(ctx6.order) for _ in range(64)])
    prod = ctx6.mulv(xs, ys)
    for x, y, p in zip(xs, ys, prod):
        assert ctx6.mul(int(x), int(y)) == int(p)
    c = rng.randrange(1, ctx6.order)
    assert np.array_equal(ctx6.mulcv(c, xs), ctx6.mulv(np.full(64, c), xs))
    p7 = ctx6.pow_table(7)
    for x in range(ctx6.order):
        assert int(p7[x]) == ctx6.pow(x, 7)
