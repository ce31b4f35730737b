import numpy as np
import pytest

from apn_forge import apn, f2, linmap
from apn_forge.errors import (
    BadDimension,
    DimensionTooSmall,
    NonBinaryCoefficients,
    OddDimension,
    PreconditionViolated,
    ZeroA,
)
from apn_forge.field import mk_field
from apn_forge.linmap import LinearizedPoly
from apn_forge.vbf import VBF, Form1, power_map


def rand_form1(ctx, rng):
    return Form1(
        LinearizedPoly(ctx, [rng.randrange(ctx.order) for _ in range(ctx.n)]),
        LinearizedPoly(ctx, [rng.randrange(ctx.order) for _ in range(ctx.n)]),
    )


def binary_form1(ctx, mask):
    return Form1(
        linmap.from_mask(ctx, mask & (ctx.order - 1)),
        linmap.from_mask(ctx, mask >> ctx.n),
    )


def x9_plus_tr3(ctx):
    return Form1(linmap.trace_map(ctx), linmap.identity(ctx))


def test_naive_gold(ctx5):
    assert apn.is_apn_naive(power_map(ctx5, 3)).is_apn


def test_naive_witness(ctx6):
    v = apn.is_apn_naive(power_map(ctx6, 9))
    assert not v.is_apn
    w = v.witness
    assert w is not None and len(w.xs) >= 4
    F = power_map(ctx6, 9)
    assert all(F(x ^ w.a) ^ F(x) == w.b for x in w.xs)


def test_naive_x9_tr3_n8(ctx8):
    assert apn.is_apn_naive(x9_plus_tr3(ctx8).realize()).is_apn


def test_ddt_structure(ctx6, rng):
    F = rand_form1(ctx6, rng).realize()
    d = apn.Ddt(F)
    assert np.all(d.table.sum(axis=1) == ctx6.order)
    assert np.all(d.table % 2 == 0)
    assert d.table[0][0] == ctx6.order


def test_quadratic_agrees_with_naive_exhaustive_n4(ctx4):
    for mask in range(1 << 8):
        form = binary_form1(ctx4, mask)
        want = apn.is_apn_naive(form.realize()).is_apn
        assert apn.is_apn_quadratic(form).is_apn == want
        assert apn.is_apn_quadratic(form.realize()).is_apn == want


def test_quadratic_family_n6(ctx6):
    assert apn.is_apn_quadratic(Form1(linmap.identity(ctx6), linmap.trace_map(ctx6))).is_apn


def test_quadratic_rejects_linear_with_witness(ctx6):
    lin = VBF(ctx6, linmap.identity(ctx6).lut())
    v = apn.is_apn_quadratic(lin)
    assert not v.is_apn and v.witness is not None


def test_lemma1_agrees_with_naive_exhaustive_n5(ctx5):
    for mask in range(1 << 10):
        form = binary_form1(ctx5, mask)
        assert apn.is_apn_lemma1(form).is_apn == apn.is_apn_naive(form.realize()).is_apn


def test_lemma1_violation_location_n6(ctx6):
    v = apn.is_apn_lemma1(x9_plus_tr3(ctx6))
    assert not v.is_apn
    assert v.witness.a == 1  # the first coset representative already fails


def test_lemma1_pure_cube_never_fails():
    for n in range(4, 13):
        ctx = mk_field(n)
        form = Form1(linmap.identity(ctx), linmap.zero(ctx))
        assert apn.is_apn_lemma1(form).is_apn
        assert apn.is_apn_tcondition(form).is_apn


def test_tcondition_agrees_exhaustive_n5(ctx5):
    for mask in range(1 << 10):
        form = binary_form1(ctx5, mask)
        assert apn.is_apn_tcondition(form).is_apn == apn.is_apn_lemma1(form).is_apn


def test_tcondition_x9_tr3_dimensions():
    for n in range(4, 11):
        ctx = mk_field(n)
        verdict = apn.is_apn_tcondition(x9_plus_tr3(ctx))
        assert verdict.is_apn == (n in (4, 5, 8))


def test_tcondition_zero_L2_reduces_to_lemma1(ctx6, rng):
    for _ in range(20):
        L1 = LinearizedPoly(ctx6, [rng.randrange(ctx6.order) for _ in range(6)])
        form = Form1(L1, linmap.zero(ctx6))
        assert apn.is_apn_tcondition(form).is_apn == apn.is_apn_lemma1(form).is_apn


def test_quick_reject_parity(ctx4):
    reject = apn.quick_reject_parity(
        Form1(linmap.from_mask(ctx4, 0b0001), linmap.from_mask(ctx4, 0b0010))
    )
    assert reject is not None and reject.stage == "parity"
    passes = apn.quick_reject_parity(
        Form1(linmap.from_mask(ctx4, 0b0001), linmap.trace_map(ctx4))
    )
    assert passes is None
    with pytest.raises(OddDimension):
        apn.quick_reject_parity(x9_plus_tr3(mk_field(5)))
    with pytest.raises(NonBinaryCoefficients):
        apn.quick_reject_parity(
            Form1(linmap.scaled(ctx4, {0: ctx4.alpha}), linmap.identity(ctx4))
        )


def test_quick_reject_nonzero(ctx6):
    good = Form1(linmap.identity(ctx6), linmap.trace_map(ctx6))  # APN family member
    assert apn.quick_reject_nonzero(good) is None
    bad = Form1(linmap.identity(ctx6), linmap.identity(ctx6))
    reject = apn.quick_reject_nonzero(bad)
    assert reject is not None and reject.data["j"] == 0


def test_quick_reject_beta(ctx6):
    assert apn.quick_reject_beta(Form1(linmap.identity(ctx6), linmap.identity(ctx6))) is None
    # build L1 annihilating one subfield-8 trace-zero element
    beta = apn._subfield8_trace_zero(ctx6)[0]
    rows = f2.transpose(
        [ctx6.pow(1 << j, 2) ^ ctx6.mul(beta, 1 << j) for j in range(6)], 6
    )
    # L1(x) = x^2 + c x with c = beta gives L1(beta * (0? ...)); simpler: kernel by construction
    L1 = LinearizedPoly(ctx6, [beta, 1, 0, 0, 0, 0])  # L1(x) = beta x + x^2
    # L1(beta^-1 * beta^2...) -- just verify the filter agrees with the oracle instead
    form = Form1(L1, linmap.identity(ctx6))
    reject = apn.quick_reject_beta(form)
    if reject is not None:
        assert not apn.is_apn_naive(form.realize()).is_apn
    with pytest.raises(BadDimension):
        apn.quick_reject_beta(x9_plus_tr3(mk_field(4)))


def test_filter_soundness_exhaustive(ctx4, ctx6):
    for mask in range(1 << 8):
        form = binary_form1(ctx4, mask)
        rejected = (
            apn.quick_reject_parity(form) is not None
            or apn.quick_reject_nonzero(form) is not None
        )
        if rejected:
            assert not apn.is_apn_naive(form.realize()).is_apn
    # n=6 includes the beta filter; sample the binary space
    for mask in range(0, 1 << 12, 7):
        form = binary_form1(ctx6, mask)
        rejected = (
            apn.quick_reject_parity(form) is not None
            or apn.quick_reject_nonzero(form) is not None
            or apn.quick_reject_beta(form) is not None
        )
        if rejected:
            assert not apn.is_apn_naive(form.realize()).is_apn


def test_build_L3_example(ctx8):
    form = Form1(linmap.identity(ctx8), linmap.zero(ctx8))
    L3 = apn.build_L3(form)
    assert L3.coeffs == (1, 1, 0, 0, 0, 0, 0, 0)  # x^2 + x
    assert L3.kernel() == [0, 1]


def test_build_L3_eval_identity(rng):
    ctx = mk_field(10)
    for _ in range(5):
        form = rand_form1(ctx, rng)
        L3 = apn.build_L3(form)
        xs = np.arange(ctx.order, dtype=np.int64)
        direct = form.L1.lut()[ctx.pow_table(2)[xs] ^ xs] ^ form.L2.lut()[
            ctx.pow_table(8)[xs] ^ xs
        ]
        assert np.array_equal(L3.lut(), direct)


def test_build_L3_apn_kernel(ctx8):
    form = x9_plus_tr3(ctx8)
    L3 = apn.build_L3(form)
    assert L3.kernel() == [0, 1]
    counts = np.bincount(L3.lut(), minlength=ctx8.order)
    assert set(counts[counts > 0]) == {2}  # 2-to-1


def test_build_L3_small_dimension():
    ctx3 = mk_field(3)
    with pytest.raises(DimensionTooSmall):
        apn.build_L3(Form1(linmap.identity(ctx3), linmap.zero(ctx3)))


def brute_force_permutation(L):
    F = apn.x_plus_L_cube(L)
    return len(set(int(v) for v in F.lut)) == L.ctx.order


def test_perm_suff_trace_zero_map(ctx6):
    assert apn.perm_suff_trace(linmap.zero(ctx6))
    assert brute_force_permutation(linmap.zero(ctx6))


def test_perm_suff_trace_implication():
    for n in (4, 5, 6):
        ctx = mk_field(n)
        for mask in range(ctx.order):
            L = linmap.from_mask(ctx, mask)
            if apn.perm_suff_trace(L):
                assert brute_force_permutation(L)


def test_perm_iff_matches_brute_force():
    for n in (4, 5, 6):
        ctx = mk_field(n)
        for mask in range(ctx.order):
            L = linmap.from_mask(ctx, mask)
            assert apn.perm_iff(L) == brute_force_permutation(L)


def test_perm_iff_random(ctx6, rng):
    for _ in range(50):
        L = LinearizedPoly(ctx6, [rng.randrange(ctx6.order) for _ in range(6)])
        assert apn.perm_iff(L) == brute_force_permutation(L)


def test_build_eq3_degenerate(ctx6):
    F = apn.build_eq3(linmap.zero(ctx6), 1, 0)
    assert F == power_map(ctx6, 3)
    with pytest.raises(ZeroA):
        apn.build_eq3(linmap.zero(ctx6), 0, 1)
    with pytest.raises(OddDimension):
        apn.build_eq3(linmap.zero(mk_field(5)), 1, 0)


def test_build_eq3_from_permutations(ctx4, rng):
    for mask in range(ctx4.order):
        L = linmap.from_mask(ctx4, mask)
        if not brute_force_permutation(L):
            continue
        for _ in range(3):
            a = rng.randrange(1, ctx4.order)
            b = rng.randrange(ctx4.order)
            F = apn.build_eq3(L, a, b)
            assert apn.is_apn_naive(F).is_apn


def test_family_tr9():
    for n in (4, 5, 6, 7):
        ctx = mk_field(n)
        F = apn.family("tr9", ctx, 1)
        assert apn.is_apn_quadratic(F).is_apn
    ctx7 = mk_field(7)
    Fa = apn.family("tr9", ctx7, ctx7.alpha)
    assert apn.is_apn_quadratic(Fa).is_apn
    with pytest.raises(ZeroA):
        apn.family("tr9", ctx7, 0)


def test_family_tr3_kinds(ctx6):
    for kind in ("tr3_a", "tr3_b"):
        F = apn.family(kind, ctx6, ctx6.alpha)
        assert apn.is_apn_quadratic(F).is_apn
    with pytest.raises(BadDimension):
        apn.family("tr3_a", mk_field(4), 1)


def test_family_half_trace(ctx8):
    F = apn.family("half_trace_1", ctx8)
    expected = (
        ctx8.pow_table(3)
        ^ ctx8.pow_table((1 << 4) + 2)
        ^ ctx8.pow_table((1 << 5) + 1)
    )
    assert np.array_equal(F.lut, expected)
    assert apn.is_apn_naive(F).is_apn
    assert apn.is_apn_naive(apn.family("half_trace_1", mk_field(4))).is_apn
    with pytest.raises(BadDimension):
        apn.family("half_trace_1", mk_field(6))


def test_family_half_trace_cubed_variant(ctx8):
    # the cubed variant passes the differential test only at n=4; at n=8 it
    # has degree 4 and a differential count of 6 (verified witness below)
    F4 = apn.family("half_trace_2", mk_field(4))
    assert apn.is_apn_naive(F4).is_apn
    F8 = apn.family("half_trace_2", ctx8)
    assert F8.algebraic_degree() == 4
    v = apn.is_apn_naive(F8)
    assert not v.is_apn and v.witness is not None


def test_known_power_exponents_n5(ctx5):
    rows = {(name, d) for name, d, _ in apn.known_power_exponents(ctx5)}
    assert ("gold", 3) in rows and ("gold", 5) in rows
    assert ("kasami", 13) in rows
    assert ("welch", 7) in rows
    assert ("niho", 5) in rows
    assert ("inverse", 15) in rows
    assert ("dobbertin", 29) in rows


def test_known_power_exponents_n6(ctx6):
    rows = apn.known_power_exponents(ctx6)
    names = {name for name, _, _ in rows}
    assert names == {"gold"}
    assert {d for _, d, _ in rows} == {3, 33}


def test_known_power_exponents_verify_small():
    for n in (4, 5, 6, 7, 8):
        ctx = mk_field(n)
        for name, d, deg in apn.known_power_exponents(ctx):
            F = power_map(ctx, d)
            assert apn.is_apn_naive(F).is_apn, (n, name, d)
            assert F.algebraic_degree() == deg, (n, name, d)


def test_check_boolean_addition_family(ctx5):
    F = power_map(ctx5, 3)
    f = F.ctx and Form1(linmap.zero(ctx5), linmap.trace_map(ctx5)).realize()
    tr_x9 = VBF(ctx5, f.lut)  # Tr(x^9) as a 0/1-valued map
    from apn_forge.vbf import BooleanFunction

    fb = BooleanFunction.from_array(5, tr_x9.lut.astype(np.uint8))
    assert apn.check_boolean_addition(F, fb)
    assert apn.is_apn_naive(F.add_boolean(fb)).is_apn


def test_check_boolean_addition_zero(ctx5):
    from apn_forge.vbf import BooleanFunction

    F = power_map(ctx5, 3)
    assert apn.check_boolean_addition(F, BooleanFunction(5, 0))


def test_check_boolean_addition_certifies(ctx6, rng):
    from apn_forge.vbf import BooleanFunction

    F = power_map(ctx6, 3)
    hits = 0
    for _ in range(60):
        lam = rng.randrange(1, ctx6.order)
        mu = rng.randrange(ctx6.order)
        f = F.component(lam)
        g = power_map(ctx6, 9).component(mu)
        fb = f ^ g
        if fb.algebraic_degree() > 2:
            continue
        if apn.check_boolean_addition(F, fb):
            hits += 1
            assert apn.is_apn_naive(F.add_boolean(fb)).is_apn
    assert hits > 0


def test_check_boolean_addition_preconditions(ctx6):
    from apn_forge.vbf import BooleanFunction

    not_apn = power_map(ctx6, 9)
    with pytest.raises(PreconditionViolated):
        apn.check_boolean_addition(not_apn, BooleanFunction(6, 0))
