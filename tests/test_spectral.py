import tracemalloc

import numpy as np
import pytest

from apn_forge import apn, linmap, spectral
from apn_forge.errors import NotQuadratic, OddDimension
from apn_forge.field import mk_field
from apn_forge.linmap import LinearizedPoly
from apn_forge.catalog import dillon6
from apn_forge.vbf import VBF, BooleanFunction, Form1, power_map


def rand_form1(ctx, rng):
    return Form1(
        LinearizedPoly(ctx, [rng.randrange(ctx.order) for _ in range(ctx.n)]),
        LinearizedPoly(ctx, [rng.randrange(ctx.order) for _ in range(ctx.n)]),
    )


def rand_boolean(n, rng):
    return BooleanFunction(n, rng.getrandbits(1 << n))


def test_wht_constant_zero(ctx6):
    f = BooleanFunction(6, 0)
    w = spectral.wht(f, ctx6)
    assert w[0] == 64
    assert np.all(w.values[1:] == 0)


def test_wht_of_trace(ctx6):
    f = BooleanFunction.from_array(6, ctx6.trace_table())
    w = spectral.wht(f, ctx6)
    assert w[1] == 64
    assert sum(int(v) != 0 for v in w.values) == 1


def test_parseval(ctx6, rng):
    for _ in range(10):
        f = rand_boolean(6, rng)
        assert spectral.wht(f, ctx6).parseval_holds()


def test_F0_values(ctx6):
    assert spectral.F0(BooleanFunction(6, 0)) == 64
    assert spectral.F0(BooleanFunction.from_array(6, ctx6.trace_table())) == 0
    assert spectral.F0(BooleanFunction(6, (1 << 64) - 1)) == -64


def test_is_bent_gold_component(ctx4):
    F = power_map(ctx4, 3)
    # cross-check the rank path against the transform oracle on every component
    dims = spectral._vdims_quadratic(F)
    for lam in range(1, 16):
        assert spectral.is_bent(F.component(lam)) == (dims[lam] == 0)
    assert any(spectral.is_bent(F.component(lam)) for lam in range(1, 16))


def test_is_bent_affine_and_odd(ctx5):
    affine = BooleanFunction.from_array(4, mk_field(4).trace_table())
    assert not spectral.is_bent(affine)
    f = power_map(ctx5, 3).component(1)
    assert not spectral.is_bent(f)  # odd n


def test_is_bent_iff_derivatives_balanced(rng):
    for _ in range(12):
        f = rand_boolean(4, rng)
        balanced = all(
            spectral.F0(f.derivative(a)) == 0 for a in range(1, 16)
        )
        assert spectral.is_bent(f) == balanced


def test_bent_components_examples(ctx4):
    assert spectral.bent_components(power_map(ctx4, 3)) == 10
    assert spectral.bent_components(dillon6()) == 46
    lin = VBF(ctx4, linmap.identity(ctx4).lut())
    assert spectral.bent_components(lin) == 0
    with pytest.raises(OddDimension):
        spectral.bent_components(power_map(mk_field(5), 3))


def test_bent_components_n16_in_bounded_memory():
    # all 2^16 lambda-forms of the Gram table in one pass: (2/3)(2^16 - 1) bent components
    F = power_map(mk_field(16), 3)
    tracemalloc.start()
    try:
        bent = spectral.bent_components(F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bent == 43690
    assert peak < 64 << 20


def test_bent_fast_path_matches_wht():
    for n in (4, 6):
        ctx = mk_field(n)
        F = apn.family("tr9", ctx, 1)
        dims = spectral._vdims_quadratic(F)
        slow = sum(
            spectral.is_bent(F.component(lam)) for lam in range(1, ctx.order)
        )
        assert int((dims[1:] == 0).sum()) == slow


def test_v_lambda_examples(ctx5):
    F = power_map(ctx5, 3)
    assert spectral.v_lambda(F, 0) == list(range(32))
    for lam in (1, 7, 19):
        dim = len(spectral.v_lambda(F, lam)).bit_length() - 1
        assert dim % 2 == 1  # same parity as n = 5


def test_v_delta_duality(ctx4):
    F = power_map(ctx4, 3)
    for a in range(1, 16):
        for lam in range(1, 16):
            assert (a in spectral.v_lambda(F, lam)) == (lam in spectral.delta_a(F, a))


def test_v_lambda_requires_quadratic(ctx5):
    cube_inv = power_map(ctx5, 15)  # degree 4
    with pytest.raises(NotQuadratic):
        spectral.v_lambda(cube_inv, 1)


def test_vdim_parity_exhaustive():
    for n in (4, 5, 6, 7, 8):
        ctx = mk_field(n)
        F = apn.family("tr9", ctx, 1)
        dims = spectral._vdims_quadratic(F)
        assert np.all(dims[1:] % 2 == n % 2)


def test_gamma_parity_and_total(ctx6, rng):
    form = rand_form1(ctx6, rng)
    prof = spectral.spectral_profile(form.realize())
    assert sum(prof.gamma.values()) == ctx6.order - 1
    for dim in prof.gamma:
        assert dim % 2 == 0  # n = 6


def test_disjoint_radicals_for_apn(ctx6):
    F = apn.family("tr9", ctx6, 1)
    seen = {}
    total = 0
    for lam in range(1, ctx6.order):
        v = [a for a in spectral.v_lambda(F, lam) if a]
        total += len(v)
        for a in v:
            assert a not in seen, "nonzero radical element shared between components"
            seen[a] = lam
    assert total == ctx6.order - 1


def test_remark_substitution_equivalence(ctx6, rng):
    # a belongs to V_lambda iff Tr(lambda(L1(a^3(x^2+x)) + L2(a^9(x^8+x)))) == 0 for all x
    form = rand_form1(ctx6, rng)
    F = form.realize()
    xs = np.arange(ctx6.order, dtype=np.int64)
    x2x = ctx6.pow_table(2)[xs] ^ xs
    x8x = ctx6.pow_table(8)[xs] ^ xs
    for lam in (1, ctx6.alpha, 17):
        V = set(spectral.v_lambda(F, lam))
        for a in range(ctx6.order):
            inner = form.L1.lut()[ctx6.mulcv(ctx6.pow(a, 3), x2x)] ^ form.L2.lut()[
                ctx6.mulcv(ctx6.pow(a, 9), x8x)
            ]
            always_zero = bool(np.all(ctx6.trace_table()[ctx6.mulcv(lam, inner)] == 0))
            assert always_zero == (a in V)


def test_apn_sum_check_gold(ctx5):
    ok, sums = spectral.apn_sum_check(power_map(ctx5, 3))
    assert ok
    assert set(sums.values()) == {1 << 11}


def test_apn_sum_check_linear(ctx4):
    lin = VBF(ctx4, linmap.identity(ctx4).lut())
    ok, sums = spectral.apn_sum_check(lin)
    assert not ok
    assert set(sums.values()) == {1 << 12}  # 2^(3n) for a bijective linear map


def test_apn_sum_check_vs_ddt(ctx6, rng):
    for _ in range(50):
        form = rand_form1(ctx6, rng)
        F = form.realize()
        ok, sums = spectral.apn_sum_check(F)
        assert ok == apn.is_apn_naive(F).is_apn
        target = 1 << 13
        assert all(s >= target for s in sums.values())


def test_unique_lambda_examples():
    ctx7 = mk_field(7)
    good = Form1(linmap.identity(ctx7), linmap.trace_map(ctx7))  # x^3 + Tr(x^9)
    assert spectral.unique_lambda_check(good)
    ctx6 = mk_field(6)
    bad = Form1(linmap.trace_map(ctx6), linmap.identity(ctx6))  # x^9 + Tr(x^3)
    assert not spectral.unique_lambda_check(bad)


def test_unique_lambda_vs_sum_check_exhaustive(ctx4):
    for mask in range(256):
        form = Form1(
            linmap.from_mask(ctx4, mask & 0xF), linmap.from_mask(ctx4, mask >> 4)
        )
        assert spectral.unique_lambda_check(form) == spectral.apn_sum_check(form.realize())[0]


def test_conjecture_check_tr9_n8(ctx8):
    form = Form1(linmap.identity(ctx8), linmap.trace_map(ctx8))
    res = spectral.conjecture_check(form)
    assert res == (True, 170, True)


def test_conjecture_check_dillon():
    apn_ok, bent, holds = spectral.conjecture_check(dillon6())
    assert apn_ok and bent == 46 and not holds


def test_conjecture_check_non_apn(ctx6, rng):
    while True:
        form = rand_form1(ctx6, rng)
        apn_ok, bent, holds = spectral.conjecture_check(form)
        if not apn_ok and bent != 42:
            assert holds
            break


def test_conjecture_check_odd_dimension(ctx5):
    with pytest.raises(OddDimension):
        spectral.conjecture_check(power_map(ctx5, 3))


def test_bent_count_relation_counterexample_frozen(ctx8):
    # frozen full-coefficient member at n=8: exactly 170 bent components
    # (the two-thirds count) yet differentially refuted; every verification
    # route must keep agreeing on this instance
    form = Form1(
        LinearizedPoly(ctx8, [133, 246, 83, 32, 114, 54, 140, 199]),
        LinearizedPoly(ctx8, [61, 154, 182, 208, 170, 81, 127, 29]),
    )
    apn_ok, bent, holds = spectral.conjecture_check(form)
    assert (apn_ok, bent, holds) == (False, 170, False)
    F = form.realize()
    assert not apn.is_apn_naive(F).is_apn
    slow_bent = sum(
        spectral.is_bent(F.component(lam)) for lam in range(1, ctx8.order)
    )
    assert slow_bent == 170
