import numpy as np
import pytest

from apn_forge import linmap
from apn_forge.errors import BadLut, ContextMismatch, ZeroDirection
from apn_forge.field import mk_field
from apn_forge.linmap import LinearizedPoly
from apn_forge.vbf import (
    VBF,
    BooleanFunction,
    Form1,
    UnivariatePoly,
    from_univariate,
    load_lut,
    power_map,
    save_lut,
)


def rand_form1(ctx, rng):
    return Form1(
        LinearizedPoly(ctx, [rng.randrange(ctx.order) for _ in range(ctx.n)]),
        LinearizedPoly(ctx, [rng.randrange(ctx.order) for _ in range(ctx.n)]),
    )


def test_realize_monomial(ctx4):
    f = Form1(linmap.identity(ctx4), linmap.zero(ctx4))
    assert f.realize() == power_map(ctx4, 3)


def test_realize_trace_of_ninth(ctx8):
    f = Form1(linmap.zero(ctx8), linmap.trace_map(ctx8))
    F = f.realize()
    for x in (0, 1, 5, 77, 254):
        assert F(x) == ctx8.trace(ctx8.pow(x, 9))


def test_realize_context_mismatch(ctx4, ctx6):
    with pytest.raises(ContextMismatch):
        Form1(linmap.identity(ctx4), linmap.zero(ctx6))


def test_form1_is_outer_cube_composition(rng):
    # F'(x) = F(x^3) with F(x) = L1(x) + L2(x^3), exhaustively for n <= 6
    for n in (4, 5, 6):
        ctx = mk_field(n)
        for _ in range(10):
            form = rand_form1(ctx, rng)
            Fp = form.realize()
            for x in range(ctx.order):
                c = ctx.pow(x, 3)
                assert Fp(x) == form.L1.eval(c) ^ form.L2.eval(ctx.pow(c, 3))


def test_form1_degree_bound_exhaustive_binary(ctx4):
    for mask in range(256):
        form = Form1(
            linmap.from_mask(ctx4, mask & 0xF), linmap.from_mask(ctx4, mask >> 4)
        )
        assert form.realize().algebraic_degree() <= 2


def test_univariate_of_constant_zero(ctx4):
    F = VBF(ctx4, np.zeros(16, dtype=np.int64))
    assert F.to_univariate().coeffs == {}
    assert F.algebraic_degree() == 0


def test_univariate_of_cube(ctx4):
    assert power_map(ctx4, 3).to_univariate().coeffs == {3: 1}


def test_univariate_roundtrip_random(ctx6, rng):
    for _ in range(5):
        lut = [rng.randrange(ctx6.order) for _ in range(ctx6.order)]
        F = VBF(ctx6, lut)
        p = F.to_univariate()
        assert from_univariate(p) == F
        # roundtrip on the coefficient map as well
        assert from_univariate(p).to_univariate().coeffs == p.coeffs


def test_univariate_roundtrip_n8(ctx8, rng):
    lut = [rng.randrange(ctx8.order) for _ in range(ctx8.order)]
    F = VBF(ctx8, lut)
    assert from_univariate(F.to_univariate()) == F


def test_univariate_evaluation_matches(ctx6, rng):
    lut = [rng.randrange(ctx6.order) for _ in range(ctx6.order)]
    F = VBF(ctx6, lut)
    p = F.to_univariate()
    for x in range(ctx6.order):
        assert p.evaluate(x) == F(x)


def test_algebraic_degree_examples(ctx5, rng):
    assert power_map(ctx5, 3).algebraic_degree() == 2
    ctx4 = mk_field(4)
    affine = VBF(ctx4, ctx4.pow_table(2) ^ 7)
    assert affine.algebraic_degree() == 1
    # inverse exponent at n = 2t+1 = 5 has degree n-1
    assert power_map(ctx5, 2 ** 4 - 1).algebraic_degree() == 4
    # random tables: the Moebius degree equals the interpolated one
    for n in (3, 4, 5, 6):
        ctx = mk_field(n)
        for _ in range(5):
            F = VBF(ctx, [rng.randrange(ctx.order) for _ in range(ctx.order)])
            weights = [j.bit_count() for j in F.to_univariate().coeffs]
            assert F.algebraic_degree() == max(weights, default=0)


def test_derivative_of_cube(ctx6):
    F = power_map(ctx6, 3)
    for a in (1, ctx6.alpha, 9):
        D = F.derivative(a)
        p = D.to_univariate().coeffs
        expected = {
            2: a,
            1: ctx6.pow(a, 2),
            0: ctx6.pow(a, 3),
        }
        assert p == {k: v for k, v in expected.items() if v}


def test_derivative_of_linear_is_constant(ctx6, rng):
    L = LinearizedPoly(ctx6, [rng.randrange(ctx6.order) for _ in range(6)])
    F = VBF(ctx6, L.lut())
    for a in (1, 5, 33):
        D = F.derivative(a)
        assert np.all(D.lut == F(a))


def test_derivative_degree_drop(ctx6, rng):
    form = rand_form1(ctx6, rng)
    F = form.realize()
    for a in (1, 2, 7, 43):
        assert F.derivative(a).algebraic_degree() <= 1


def test_derivative_involution(ctx6, rng):
    form = rand_form1(ctx6, rng)
    F = form.realize()
    D = F.derivative(5).derivative(5)
    assert np.all(D.lut == 0)
    with pytest.raises(ZeroDirection):
        F.derivative(0)


def test_component_examples(ctx6, rng):
    F = power_map(ctx6, 1)
    assert F.component(0).bits == 0
    tr = F.component(1)
    assert np.array_equal(tr.to_array(), ctx6.trace_table())
    form = rand_form1(ctx6, rng)
    G = form.realize()
    for _ in range(20):
        l1, l2 = rng.randrange(ctx6.order), rng.randrange(ctx6.order)
        assert G.component(l1) ^ G.component(l2) == G.component(l1 ^ l2)


def test_boolean_function_basics():
    f = BooleanFunction.from_array(3, [0, 1, 1, 0, 1, 0, 0, 1])
    assert f.weight() == 4
    assert [f.bit(x) for x in range(8)] == [0, 1, 1, 0, 1, 0, 0, 1]
    assert np.array_equal(f.to_signs(), 1 - 2 * f.to_array().astype(np.int64))
    assert f.algebraic_degree() == 1  # that table is the parity of the three bits
    g = BooleanFunction.from_array(2, [0, 0, 0, 1])
    assert g.algebraic_degree() == 2  # AND of two bits


def test_boolean_degree_via_moebius(ctx6):
    tr = BooleanFunction.from_array(6, mk_field(6).trace_table())
    assert tr.algebraic_degree() == 1
    F = power_map(ctx6, 3)
    assert F.component(1).algebraic_degree() <= 2


def test_lut_file_roundtrip(tmp_path, ctx6, rng):
    form = rand_form1(ctx6, rng)
    F = form.realize()
    path = tmp_path / "f.lut"
    save_lut(F, path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == ctx6.order
    assert load_lut(ctx6, path) == F


@pytest.mark.parametrize("lut", [[0, 1, 2], [0, 1, 4, 3], [0, -1, 2, 3], [0, 1, 2**70, 3]])
def test_vbf_rejects_bad_lut(lut):
    with pytest.raises(BadLut):
        VBF(mk_field(2), lut)


def test_univariate_text_form(ctx4):
    p = UnivariatePoly(ctx4, {9: 1, 3: 5, 0: 2})
    assert p.to_text() == "x^9 + 0x5*x^3 + 0x2"
    assert UnivariatePoly(ctx4, {}).to_text() == "0"


def test_add_boolean(ctx6, rng):
    F = power_map(ctx6, 3)
    f = F.component(ctx6.alpha)
    G = F.add_boolean(f)
    for x in range(ctx6.order):
        assert G(x) == F(x) ^ f.bit(x)
