import random

import numpy as np
import pytest

from apn_forge import apn, catalog, equiv, linmap, search
from apn_forge.errors import DimensionTooLarge, NotQuadratic, NotQuadraticApn
from apn_forge.field import mk_field
from apn_forge.linmap import LinearizedPoly
from apn_forge.vbf import VBF, Form1, power_map

import f3_oracle


def test_extended_walsh_linear(ctx4):
    lin = VBF(ctx4, linmap.identity(ctx4).lut())
    ms = dict(equiv.extended_walsh(lin))
    assert ms[16] == 15  # one full-size value per component
    assert ms[0] == 15 * 15


def test_extended_walsh_ea_invariance(ctx6):
    rng = random.Random(5)
    F = apn.family("tr9", ctx6, 1)
    base = equiv.extended_walsh(F)
    for _ in range(20):
        G = equiv.random_ea_transform(F, rng)
        assert equiv.extended_walsh(G) == base


def test_extended_walsh_gold_pair(ctx8):
    # two inequivalent power maps may share the extended Walsh multiset
    assert equiv.extended_walsh(power_map(ctx8, 3)) == equiv.extended_walsh(
        power_map(ctx8, 9)
    )


def test_diff_spectrum_apn_flat(ctx6):
    ms = dict(equiv.diff_spectrum(apn.family("tr9", ctx6, 1)))
    assert set(ms) == {0, 2}
    assert ms[2] == 63 * 32


def test_rank_invariance_and_regression(ctx5):
    rng = random.Random(11)
    F = power_map(ctx5, 3)
    g0, d0 = equiv.gamma_rank(F), equiv.delta_rank(F)
    for _ in range(10):
        G = equiv.random_ea_transform(F, rng)
        assert equiv.gamma_rank(G) == g0
        assert equiv.delta_rank(G) == d0
    assert equiv.gamma_rank(power_map(mk_field(6), 3)) == 1102


def test_rank_dimension_guard():
    for n in (8, 9):
        F = power_map(mk_field(n), 3)
        for rank in (equiv.gamma_rank, equiv.delta_rank):
            with pytest.raises(DimensionTooLarge):
                rank(F)
    F7 = power_map(mk_field(7), 3)
    with pytest.raises(DimensionTooLarge):
        equiv.gamma3_rank(F7)
    with pytest.raises(DimensionTooLarge):
        equiv.profile(F7, with_gamma3=True)


def test_ortho_derivative_luts_are_kept_only_where_gamma3_reads_them():
    for n in (6, 7):
        profiles, orthos = equiv._quadratic_profiles([power_map(mk_field(n), 3)])
        assert profiles[0].ortho_diff_spectrum is not None
        assert (orthos[0] is None) == (n > 6)


def test_gamma_rank_separates_n6_classes():
    # distinct gamma ranks certify CCZ-inequivalence of the two catalogued
    # n=6 classes (frozen regression values)
    F0 = catalog.x9_rep(6, 0).realize()
    F1 = catalog.x9_rep(6, 1).realize()
    assert equiv.gamma_rank(F0) == 1146
    assert equiv.gamma_rank(F1) == 1102
    assert equiv.delta_rank(F0) == equiv.delta_rank(F1) == 94


def test_gamma3_separates_n5_classes(ctx5):
    F1 = power_map(ctx5, 9)
    F2 = Form1(linmap.trace_map(ctx5), linmap.identity(ctx5)).realize()
    assert equiv.gamma3_rank(F1) == 496
    assert equiv.gamma3_rank(F2) == 465
    assert type(equiv.gamma3_rank(F1)) is int  # records serialize it as JSON
    rng = random.Random(3)
    assert equiv.gamma3_rank(equiv.random_ea_transform(F2, rng)) == 465


def test_gamma3_rank_n6_pin(ctx6):
    # index 10 is the first APN hit of the n = 6 form1_random job with seed 1
    job = search.SearchJob(field="n=6", shape="form1_random", sample_count=2000, seed=1)
    [(_, c1, c2, hexes)] = search._candidates(job, ctx6, np.array([10]))
    assert ";".join(",".join(h) for h in hexes) == "27,1e,6,9,3b,35;b,d,16,29,28,9"
    F = Form1(LinearizedPoly(ctx6, c1), LinearizedPoly(ctx6, c2)).realize()
    assert equiv.gamma3_rank(F) == 1974
    assert equiv.gamma3_rank(equiv.random_ea_transform(F, random.Random(6))) == 1974


@pytest.mark.parametrize("index", [0, 1])
def test_gamma3_rank_n6_matches_elimination(index):
    F = catalog.x9_rep(6, index).realize()
    for G in (F, equiv.random_ea_transform(F, random.Random(index))):
        assert equiv.gamma3_rank(G) == f3_oracle.translate_rank(G)


def test_gamma3_rank_is_defined_for_quadratic_apn_only(ctx5, ctx6):
    with pytest.raises(NotQuadratic):
        equiv.gamma3_rank(power_map(ctx5, 7))
    not_apn = VBF(ctx6, power_map(ctx6, 9).lut ^ 5)  # quadratic, plus a constant
    with pytest.raises(NotQuadraticApn):
        equiv.gamma3_rank(not_apn)
    p = equiv.profile(not_apn, with_gamma3=True)
    assert p.gamma3_rank is None and p.ortho_diff_spectrum is None


def test_ortho_derivative_gold(ctx5):
    F = power_map(ctx5, 3)
    pi = equiv.ortho_derivative(F)
    for a in range(1, ctx5.order):
        assert pi(a) == ctx5.pow(a, -3)
        assert pi(a) != 0
        # defining identity
        for x in (1, 7, 19):
            w = F(x ^ a) ^ F(x) ^ F(a) ^ F(0)
            assert ctx5.trace(ctx5.mul(pi(a), w)) == 0


def test_ortho_derivative_requires_apn(ctx6):
    with pytest.raises(NotQuadraticApn):
        equiv.ortho_derivative(power_map(ctx6, 9))


def test_ortho_spectrum_ea_invariance(ctx6):
    rng = random.Random(7)
    F = apn.family("tr9", ctx6, 1)
    base = equiv.diff_spectrum(equiv.ortho_derivative(F))
    for _ in range(10):
        L, c = equiv.random_affine_permutation(ctx6, rng)
        # EA transforms preserving F(0)=0 keep the ortho derivative defined
        G = equiv.ea_transform(F, (L, 0), (linmap.identity(ctx6), 0))
        assert equiv.diff_spectrum(equiv.ortho_derivative(G)) == base


def test_partition_duplicates_and_apn_consistency(ctx6):
    F = apn.family("tr9", ctx6, 1)
    G = power_map(ctx6, 9)  # not APN
    buckets = equiv.partition([F, VBF(ctx6, F.lut.copy()), G])
    assert len(buckets) == 2
    sizes = sorted(len(b["members"]) for b in buckets)
    assert sizes == [1, 2]
    for b in buckets:
        verdicts = {apn.is_apn_naive([F, F, G][i]).is_apn for i in b["members"]}
        assert len(verdicts) == 1
    dup_bucket = next(b for b in buckets if len(b["members"]) == 2)
    assert not dup_bucket["unresolved"]  # identical tables are not a collision


def test_partition_ignores_an_added_constant(ctx5):
    # x^3 and x^3 + 1 are EA-equivalent: one bucket, which cannot be certified
    F = power_map(ctx5, 3)
    buckets = equiv.partition([F, VBF(ctx5, F.lut ^ 1)])
    assert len(buckets) == 1 and buckets[0]["unresolved"]
    assert buckets[0]["profile"].ortho_diff_spectrum is not None


def test_partition_table_counts_small():
    for n in (4, 5, 6, 7):
        funcs = [catalog.x9_rep(n, i).realize() for i in range(len(catalog.X9L_REPRESENTATIVES[n]))]
        buckets, _, _ = equiv.classify(funcs)
        assert len(buckets) == catalog.EXPECTED_CLASS_COUNTS[n]
        assert not any(b["unresolved"] for b in buckets)


def _classify_agrees_with_profile(funcs):
    _, profiles, escalated = equiv.classify(funcs)
    for F, p in zip(funcs, profiles):
        assert p.as_dict() == equiv.profile(F, with_gamma3=escalated).as_dict()
    return profiles, escalated


def test_batched_and_single_function_classification_agree(ctx5, ctx6):
    job = search.SearchJob(field="n=5", shape="x9_plus_L_binary")
    forms = [Form1(linmap.from_mask(ctx5, m1), linmap.from_mask(ctx5, m2))
             for _, m1, m2, _ in search._candidates(job, ctx5, np.arange(32))]
    hits = [form.realize() for form in forms if apn.is_apn_quadratic(form).is_apn]
    assert len(hits) == 15
    profiles, escalated = _classify_agrees_with_profile(hits)
    assert escalated and None not in [p.gamma3_rank for p in profiles]
    assert list(profiles[0].as_dict()) == [
        "ext_walsh", "diff_spectrum", "gamma_rank", "delta_rank",
        "ortho_diff_spectrum", "ortho_walsh_spectrum", "gamma3_rank",
    ]
    for n in range(4, 9):
        _classify_agrees_with_profile([catalog.x9_rep(n, i).realize() for i in range(len(catalog.X9L_REPRESENTATIVES[n]))])
    # x^3 and its square are EA-equivalent, so the batch escalates; x^9 is
    # quadratic and not APN at n = 6
    mixed = [power_map(ctx6, 3), power_map(ctx6, 9), power_map(ctx6, 6), catalog.x9_rep(6, 1).realize()]
    profiles, escalated = _classify_agrees_with_profile(mixed)
    assert escalated
    assert equiv.classify([]) == ([], [], False)
    assert profiles[1].ortho_diff_spectrum is profiles[1].ortho_walsh_spectrum is profiles[1].gamma3_rank is None
    assert None not in [p.gamma3_rank for p in profiles[::2]]


def test_profile_reads_the_degree_from_the_function(ctx6):
    # assume_quadratic is ignored: a cubic's Walsh spectrum still comes from the transform
    for F in (power_map(ctx6, 3), power_map(ctx6, 9), power_map(ctx6, 7)):
        assert equiv.profile(F) == equiv.profile(F, assume_quadratic=True)
    cubic = equiv.profile(power_map(ctx6, 7), assume_quadratic=True)
    assert cubic.ext_walsh == equiv.extended_walsh(power_map(ctx6, 7))
    assert cubic.ortho_diff_spectrum is None


def test_profile_serialization(ctx6):
    p = equiv.profile(apn.family("tr9", ctx6, 1))
    d = p.as_dict()
    assert d["ortho_diff_spectrum"] is not None
    assert isinstance(d["ext_walsh"], dict)
    import json

    json.dumps(d)  # JSON-ready
