"""Acceptance suite: one test per shipped criterion.

Each test prints a single PASS/FAIL line (visible with -s / in failure
output) and asserts the criterion at its stated tolerance.  Expected wall
time for the full module is around 15-20 minutes on one core; the heavy
criteria (3, 4, 6) dominate.

Criterion 6 checks the bent-count relation "APN <=> exactly (2/3)(2^n - 1)
bent components" in two halves.  The forward half (APN => the count) must
hold on every APN member of the sampled run and on every catalogued
representative.  The converse is false for the family: the n=8 sample holds
non-APN members with exactly 170 bent components.  The criterion re-verifies
each one (naive differential count, radicals re-derived one lambda at a
time) and compares the run's counterexample dump byte for byte with the
committed tests/_artifacts/bent_count_counterexamples.json.
"""

import os
import time

import numpy as np
import pytest

from apn_forge import apn, catalog, linmap, search, spectral
from apn_forge.field import mk_field
from apn_forge.linmap import LinearizedPoly
from apn_forge.search import SearchJob
from apn_forge.vbf import Form1, VBF, power_map

pytestmark = pytest.mark.acceptance

ARTIFACT_DIR = os.path.join(os.path.dirname(__file__), "_artifacts")


def report(k, ok, detail):
    line = f"ACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def binary_form1(ctx, mask):
    return Form1(
        linmap.from_mask(ctx, mask & (ctx.order - 1)),
        linmap.from_mask(ctx, mask >> ctx.n),
    )


def random_form1(ctx, seed, count):
    coeffs = search.rng_values(seed, np.arange(count), 2 * ctx.n, ctx.order)
    return [
        Form1(LinearizedPoly(ctx, c[: ctx.n]), LinearizedPoly(ctx, c[ctx.n :]))
        for c in coeffs
    ]


def test_criterion_01_dims_scan():
    t0 = time.time()
    rep = search.reproduce_dims_scan(max_n=16)
    took = time.time() - t0
    ok = rep["ok"] and rep["found_dims"] == [4, 5, 8] and took <= 600
    line = report(1, ok, f"x^9+Tr(x^3) APN dims over 4..16 = {rep['found_dims']} in {took:.1f}s")
    assert ok, line


def test_criterion_02_not_apn_on_multiples_of_three():
    bad_dims = (3, 6, 9, 12)
    results = {}
    for n in bad_dims:
        ctx = mk_field(n)
        form = Form1(linmap.trace_map(ctx), linmap.identity(ctx))
        if n == 3:
            verdict = apn.is_apn_naive(form.realize())
        else:
            verdict = apn.is_apn_lemma1(form)
        results[n] = verdict
    ok = all(
        not v.is_apn and v.witness is not None and v.witness.verifies(
            Form1(linmap.trace_map(mk_field(n)), linmap.identity(mk_field(n))).realize()
        )
        for n, v in results.items()
    )
    line = report(2, ok, f"x^9+Tr(x^3) refuted with re-verified witnesses at n in {bad_dims}")
    assert ok, line


def test_criterion_03_representative_table():
    t0 = time.time()
    rep = search.reproduce_table3(n9_samples=1_000_000, seed=0)
    took = time.time() - t0
    counts = {item["n"]: item["buckets"] for item in rep["items"]}
    expected = catalog.EXPECTED_CLASS_COUNTS
    ok = rep["ok"] and counts == expected and took <= 1800
    line = report(
        3,
        ok,
        f"bucket counts {[counts[n] for n in range(4, 11)]} == "
        f"{[expected[n] for n in range(4, 11)]}, n=9 clean "
        f"(binary exhaustive + 1e6 random), {took:.0f}s",
    )
    assert ok, line


def test_criterion_04_binary_scans():
    t0 = time.time()
    outcomes = {}
    for n in (11, 12, 13, 14, 15, 16):
        s = search.run(SearchJob(field=f"n={n}", shape="x9_plus_L_binary"))
        outcomes[n] = s.hits
    took = time.time() - t0
    ok = (
        all(outcomes[n] == [",".join(["0"] * n)] for n in (11, 13, 14, 16))
        and all(outcomes[n] == [] for n in (12, 15))
        and took <= 1200
    )
    line = report(4, ok, f"binary scans 11..16 -> hits {{n: len}} = "
                          f"{{ {', '.join(f'{n}:{len(outcomes[n])}' for n in sorted(outcomes))} }} in {took:.0f}s")
    assert ok, line


def test_criterion_05_dillon_counterexample():
    rep = search.reproduce_dillon()
    ok = rep["ok"] and rep["bent_components"] == 46 and rep["relation_bound"] == 42
    line = report(5, ok, "Dillon hexanomial: APN, 46 bent components, 46 != 42")
    assert ok, line


def _v_lambda_histogram(F):
    """dim V_lambda -> number of nonzero lambda, one radical at a time."""
    hist = {}
    for lam in range(1, F.ctx.order):
        d = len(spectral.v_lambda(F, lam)).bit_length() - 1
        hist[d] = hist.get(d, 0) + 1
    return {str(d): c for d, c in sorted(hist.items())}


def test_criterion_06_bent_count_relation_evidence(tmp_path):
    t0 = time.time()
    rep = search.reproduce_conjecture(
        sample_counts={6: 100_000, 8: 100_000}, seed=0, artifact_dir=tmp_path
    )
    took = time.time() - t0
    items = {item["n"]: item for item in rep["items"]}
    failures = []
    # forward half: every APN member of the run, and every catalogued
    # representative (re-verified independently), has (2/3)(2^n - 1) bent components
    if any(item["apn_off_target"] for item in items.values()):
        failures.append("APN member off the bent-count target")
    catalogued = 0
    for n in (4, 6, 8, 10):
        target = 2 * ((1 << n) - 1) // 3
        for i in range(len(catalog.X9L_REPRESENTATIVES[n])):
            F = catalog.x9_rep(n, i).realize()
            if not apn.is_apn_naive(F).is_apn or spectral.bent_components(F) != target:
                failures.append(f"catalogued n={n} #{i}")
            catalogued += 1
    # converse: every counterexample re-verified as non-APN with an
    # independently re-derived radical of dimension >= 4
    converse = [e for e in rep["exceptions"] if e["kind"] == "target_not_apn"]
    for k, e in enumerate(converse):
        ctx = mk_field(e["n"])
        F = Form1(LinearizedPoly(ctx, e["L1"]), LinearizedPoly(ctx, e["L2"])).realize()
        dims = _v_lambda_histogram(F)
        if (
            e["apn"]
            or apn.is_apn_naive(F).is_apn
            or dims != e["dims"]
            or max(int(d) for d in dims) < 4
            or dims.get("0") != e["bent"]
        ):
            failures.append(f"n={e['n']} index {e['index']} failed re-verification")
        if k < 8:
            bent_wht = sum(
                spectral.is_bent(F.component(lam)) for lam in range(1, ctx.order)
            )
            if bent_wht != e["bent"]:
                failures.append(f"n={e['n']} index {e['index']} Walsh bent recount")
    dump = tmp_path / "bent_count_counterexamples.json"
    committed = os.path.join(ARTIFACT_DIR, "bent_count_counterexamples.json")
    if not dump.exists() or dump.read_bytes() != open(committed, "rb").read():
        failures.append("counterexample dump differs from the committed artifact")
    refuted = items[8]["target_not_apn"] > 0 and len(converse) == items[8]["target_not_apn"]
    detail = (
        f"n=4 exhaustive: {items[4]['exceptions']} exceptions; "
        f"n=6 sampled 1e5: {items[6]['exceptions']} exceptions, "
        f"{items[6]['apn_count']} APN; n=8 sampled 1e5: "
        f"{items[8]['apn_off_target']} apn_off_target, "
        f"{items[8]['target_not_apn']} target_not_apn; forward half holds on "
        f"{catalogued} catalogued representatives; converse refuted by "
        f"{len(converse)} re-verified counterexamples, each with a radical of "
        f"dimension >= 4 ({took:.0f}s)"
    )
    if failures:
        detail += "; failures: " + ", ".join(failures[:8])
    ok = rep["ok"] and refuted and not failures
    line = report(6, ok, detail)
    assert ok, line


def test_criterion_07_derivative_sum_characterization():
    corpus = []
    ctx4 = mk_field(4)
    for mask in range(256):
        corpus.append(binary_form1(ctx4, mask).realize())
    ctx5, ctx6 = mk_field(5), mk_field(6)
    corpus += [f.realize() for f in random_form1(ctx5, 11, 40)]
    corpus += [f.realize() for f in random_form1(ctx6, 12, 40)]
    corpus += [power_map(ctx6, 9), power_map(ctx6, 3), apn.family("tr9", ctx6, 1)]
    # non-quadratic members as well
    corpus += [power_map(ctx5, 15), power_map(ctx6, 62)]
    rng_lut = search.rng_values(13, np.arange(64), 1, ctx6.order).reshape(-1)
    corpus.append(VBF(ctx6, rng_lut))
    bad = 0
    for F in corpus:
        target = 1 << (2 * F.ctx.n + 1)
        ok_flag, sums = spectral.apn_sum_check(F)
        if not all(s >= target for s in sums.values()):
            bad += 1
        if ok_flag != apn.is_apn_naive(F).is_apn:
            bad += 1
    ok = bad == 0
    line = report(7, ok, f"sum >= 2^(2n+1) and equality <=> APN on {len(corpus)} functions, exhaustive n=4")
    assert ok, line


def test_criterion_08_oracle_equivalence_suite():
    t0 = time.time()
    disagreements = 0
    for n in (4, 5):
        ctx = mk_field(n)
        for mask in range(1 << (2 * n)):
            form = binary_form1(ctx, mask)
            truth = apn.is_apn_naive(form.realize()).is_apn
            if apn.is_apn_quadratic(form).is_apn != truth:
                disagreements += 1
            if apn.is_apn_lemma1(form).is_apn != truth:
                disagreements += 1
            if apn.is_apn_tcondition(form).is_apn != truth:
                disagreements += 1
            if spectral.unique_lambda_check(form) != truth:
                disagreements += 1
    ctx6 = mk_field(6)
    for form in random_form1(ctx6, 21, 500):
        truth = apn.is_apn_naive(form.realize()).is_apn
        for res in (
            apn.is_apn_quadratic(form).is_apn,
            apn.is_apn_lemma1(form).is_apn,
            apn.is_apn_tcondition(form).is_apn,
            spectral.unique_lambda_check(form),
        ):
            if res != truth:
                disagreements += 1
    ok = disagreements == 0
    line = report(8, ok, f"4 fast tests vs reference oracle: {disagreements} disagreements "
                          f"(binary n=4,5 exhaustive + 500 random n=6) in {time.time()-t0:.0f}s")
    assert ok, line


def _brute_perm(L):
    return len(set(int(v) for v in apn.x_plus_L_cube(L).lut)) == L.ctx.order


def test_criterion_09_permutation_criteria():
    t0 = time.time()
    mism = 0
    suff_violations = 0
    perm_registry = {}
    for n in (4, 5, 6, 7, 8):
        ctx = mk_field(n)
        perms = []
        for mask in range(ctx.order):
            L = linmap.from_mask(ctx, mask)
            brute = _brute_perm(L)
            if apn.perm_iff(L) != brute:
                mism += 1
            if apn.perm_suff_trace(L) and not brute:
                suff_violations += 1
            if brute:
                perms.append(mask)
        perm_registry[n] = perms
    for n in (6, 7):
        ctx = mk_field(n)
        coeffs = search.rng_values(31, np.arange(200), ctx.n, ctx.order)
        for row in coeffs:
            L = LinearizedPoly(ctx, row)
            if apn.perm_iff(L) != _brute_perm(L):
                mism += 1
    ok = mism == 0 and suff_violations == 0
    line = report(9, ok, f"perm criterion: {mism} brute-force disagreements, "
                          f"{suff_violations} unsound sufficient-test hits in {time.time()-t0:.0f}s")
    assert ok, line


def test_criterion_10_permutation_construction():
    t0 = time.time()
    failures = 0
    built = 0
    for n in (4, 6, 8):
        ctx = mk_field(n)
        for mask in range(ctx.order):
            L = linmap.from_mask(ctx, mask)
            if not _brute_perm(L):
                continue
            coeffs = search.rng_values(41 + n + mask, np.arange(5), 2, ctx.order)
            for a_raw, b in coeffs:
                a = int(a_raw) or 1
                F = apn.build_eq3(L, a, int(b))
                built += 1
                if not apn.is_apn_naive(F).is_apn:
                    failures += 1
    ok = failures == 0 and built > 0
    line = report(10, ok, f"construction from permutations: {built} builds, {failures} non-APN "
                           f"({time.time()-t0:.0f}s)")
    assert ok, line


def test_criterion_11_two_to_one_map():
    failures = 0
    checked = 0
    corpora = []
    for n in (4, 5):
        ctx = mk_field(n)
        for mask in range(1 << (2 * n)):
            form = binary_form1(ctx, mask)
            if apn.is_apn_lemma1(form).is_apn:
                corpora.append(form)
    for n in range(4, 11):
        for i in range(len(catalog.X9L_REPRESENTATIVES[n])):
            corpora.append(catalog.x9_rep(n, i))
    ctx6 = mk_field(6)
    for form in random_form1(ctx6, 51, 300):
        if apn.is_apn_lemma1(form).is_apn:
            corpora.append(form)
    for form in corpora:
        L3 = apn.build_L3(form)
        checked += 1
        if L3.kernel() != [0, 1]:
            failures += 1
            continue
        counts = np.bincount(L3.lut(), minlength=form.ctx.order)
        if set(map(int, counts[counts > 0])) != {2}:
            failures += 1
    ok = failures == 0 and checked >= 140
    line = report(11, ok, f"L1(x^2+x)+L2(x^8+x) is 2-to-1 with kernel {{0,1}} on {checked} APN members")
    assert ok, line


def test_criterion_12_power_function_table():
    t0 = time.time()
    failures = []
    for n in range(2, 13):
        ctx = mk_field(n)
        for name, d, deg in apn.known_power_exponents(ctx):
            F = power_map(ctx, d)
            if not apn.is_apn_naive(F).is_apn:
                failures.append((n, name, d, "not apn"))
            if F.algebraic_degree() != deg:
                failures.append((n, name, d, "degree"))
    ok = not failures
    line = report(12, ok, f"classical power rows for n <= 12 all APN with stated degree "
                           f"({time.time()-t0:.0f}s){'; failures: ' + str(failures) if failures else ''}")
    assert ok, line


def test_criterion_13_determinism(tmp_path):
    import hashlib

    def digest(path):
        return hashlib.sha256(open(path, "rb").read()).hexdigest()

    jobs = [
        SearchJob(field="n=5", shape="x9_plus_L_binary", record="all"),
        SearchJob(field="n=9", shape="x9_plus_L_full", sample_count=400, seed=9, record="all"),
    ]
    ok = True
    for j, job in enumerate(jobs):
        paths = [tmp_path / f"{j}_{w}.jsonl" for w in (1, 2, 3)]
        search.run(job, out_path=paths[0], workers=1)
        search.run(job, out_path=paths[1], workers=1)
        search.run(job, out_path=paths[2], workers=3)
        hashes = {digest(p) for p in paths}
        ok &= len(hashes) == 1
    line = report(13, ok, "byte-identical sorted record files across reruns and worker counts")
    assert ok, line
