"""Enumeration and random search over the L1(x^3)+L2(x^9) family.

Jobs are deterministic: candidates are indexed, random coefficients come
from a counter-based generator keyed by (seed, index), work is partitioned
into contiguous index ranges, and the persisted record stream is sorted
before writing, so reruns and different worker counts produce identical
bytes.
"""

import json
import multiprocessing
import os
import time
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import apn, catalog, equiv, linmap, spectral
from .errors import InternalCheckFailed, InvalidJob, JobTooLarge
from .field import mk_field, parse_field_spec
from .linmap import LinearizedPoly
from .vbf import Form1, bilinear_table

EXHAUSTIVE_LIMIT = 1 << 26

# Hits are profiled only up to this many: each profile takes the full Walsh and
# differential spectra of a hit and of its ortho-derivative, and a bucket count
# says little over thousands of hits (the 20160 at n = 4 are one class).
PROFILE_HIT_LIMIT = 2048

# GF(3) escalation runs only up to this many functions: one translate rank
# eliminates a dense |D| x 4^n matrix, about 0.75 s at n = 5 and more at n = 6.
ESCALATE_LIMIT = 64

SHAPES = ("x9_plus_L_binary", "x9_plus_L_full", "form1_binary", "form1_random")


# -- deterministic candidate generation ----------------------------------------

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix64(z):
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def rng_values(seed, indices, count, order):
    """count field elements per candidate index; stable in (seed, index)."""
    if not 0 <= seed < 1 << 64:
        raise InvalidJob(f"seed must be an integer in [0, 2^64), got {seed!r}")
    idx = np.asarray(indices, dtype=np.uint64)
    stream = _mix64(np.uint64(seed) + idx * _GOLDEN)[:, None]
    ks = (np.arange(count, dtype=np.uint64) + np.uint64(1))[None, :]
    vals = _mix64(stream + ks * _GOLDEN)
    return (vals & np.uint64(order - 1)).astype(np.int64)


@dataclass
class SearchJob:
    field: str
    shape: str
    sample_count: Optional[int] = None
    seed: int = 0
    cursor: int = 0
    use_parity: bool = True
    use_nonzero: bool = True
    use_beta: bool = True
    record: str = "hits"  # "hits" | "all"

    def __post_init__(self):
        if not isinstance(self.field, str):
            raise InvalidJob(f"field must be a spec string such as 'n=6', got {self.field!r}")
        if self.shape not in SHAPES:
            raise InvalidJob(f"unknown shape {self.shape!r}")
        if self.record not in ("hits", "all"):
            raise InvalidJob(f"record must be 'hits' or 'all', got {self.record!r}")
        if self.sample_count is not None and not _int_at_least(self.sample_count, 1):
            raise InvalidJob(f"sample_count must be at least 1, got {self.sample_count!r}")
        if self.shape == "form1_random" and self.sample_count is None:
            raise InvalidJob("form1_random requires sample_count")
        if self.shape.endswith("_binary") and self.sample_count is not None:
            raise InvalidJob(f"{self.shape} is exhaustive; it takes no sample_count")
        if not (_int_at_least(self.seed, 0) and self.seed < 1 << 64):
            raise InvalidJob(f"seed must be an integer in [0, 2^64), got {self.seed!r}")
        if not _int_at_least(self.cursor, 0):
            raise InvalidJob(f"cursor must be a non-negative integer, got {self.cursor!r}")
        if self.cursor and self.cursor > (total := self.total_candidates()):
            raise InvalidJob(f"cursor {self.cursor} is past the job's {total} candidates")

    def ctx(self):
        return parse_field_spec(self.field)

    def total_candidates(self):
        n = self.ctx().n
        if self.sample_count is not None:
            return self.sample_count
        if self.shape == "x9_plus_L_binary":
            return 1 << n
        if self.shape == "form1_binary":
            return 1 << (2 * n)
        if self.shape == "x9_plus_L_full":
            total = 1 << (n * n)
            if total > EXHAUSTIVE_LIMIT:
                raise JobTooLarge(
                    f"exhaustive x9_plus_L_full at n={n} has {total} candidates; "
                    "set sample_count for random search"
                )
            return total
        raise JobTooLarge("form1_random requires sample_count")

    def to_json(self):
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text):
        # A non-object, an unknown key or a missing one makes the call a TypeError.
        try:
            return cls(**json.loads(text))
        except (TypeError, json.JSONDecodeError) as e:
            raise InvalidJob(f"bad job: {e}") from None


def _int_at_least(value, low):
    return isinstance(value, int) and not isinstance(value, bool) and value >= low


def _coeff_rows(job: SearchJob, ctx, lo, hi):
    """Coefficient rows (c1, c2), each of shape (hi - lo, n), of candidates lo..hi-1."""
    n = ctx.n
    idx = np.arange(lo, hi, dtype=np.int64)[:, None]
    shifts = np.arange(n, dtype=np.int64)
    if job.shape == "form1_binary":
        return (idx >> shifts) & 1, (idx >> (n + shifts)) & 1
    if job.shape == "form1_random":
        coeffs = rng_values(job.seed, idx[:, 0], 2 * n, ctx.order)
        return coeffs[:, :n], coeffs[:, n:]
    if job.shape == "x9_plus_L_binary":
        c1 = (idx >> shifts) & 1
    elif job.sample_count is None:
        c1 = (idx >> (n * shifts)) & (ctx.order - 1)
    else:
        c1 = rng_values(job.seed, idx[:, 0], n, ctx.order)
    return c1, np.broadcast_to(shifts == 0, c1.shape).astype(np.int64)  # L2(x) = x


def _decode(job: SearchJob, ctx, index):
    """Candidate index -> Form1."""
    c1, c2 = _coeff_rows(job, ctx, index, index + 1)
    return Form1(LinearizedPoly(ctx, c1[0]), LinearizedPoly(ctx, c2[0]))


def _classify_rows(job: SearchJob, ctx, c1, c2):
    """Verdict strings of a batch: the enabled filters in order, each on the
    rows the earlier ones kept, then the Form1 rank kernel on the survivors."""
    even = ctx.n % 2 == 0
    stages = (
        ("rejected:parity", even and job.use_parity, apn.parity_mask),
        ("rejected:nonzero", even and job.use_nonzero, lambda a, b: apn.nonzero_scan(ctx, a, b) >= 0),
        ("rejected:beta", even and job.use_beta and ctx.n % 3 == 0, lambda a, b: apn.beta_scan(ctx, a) >= 0),
        ("fail", True, lambda a, b: apn.form1_rank_scan(ctx, a, b) >= 0),
    )
    verdicts = np.full(len(c1), "apn", dtype=object)
    alive = np.arange(len(c1))
    for verdict, enabled, rejects in stages:
        if enabled and alive.size:
            out = rejects(c1[alive], c2[alive])
            verdicts[alive[out]] = verdict
            alive = alive[~out]
    return verdicts.tolist()


def _coeff_text(job: SearchJob, form: Form1):
    """Hex coefficients, "L" or "L1;L2": the summary's form of a candidate."""
    if job.shape.startswith("x9"):
        return form.L1.to_text()
    return form.L1.to_text() + ";" + form.L2.to_text()


def _record_line(job: SearchJob, ctx, coeff_text, verdict, profile_dict):
    keys = ("L",) if job.shape.startswith("x9") else ("L1", "L2")
    rec = dict(zip(keys, (part.split(",") for part in coeff_text.split(";"))))
    rec.update(shape=job.shape, n=ctx.n, verdict=verdict, profile=profile_dict)
    return json.dumps(rec, sort_keys=True)


_worker_job = None
_worker_ctx = None


def _init_worker(job_json):
    global _worker_job, _worker_ctx
    _worker_job = SearchJob.from_json(job_json)
    _worker_ctx = _worker_job.ctx()


def _run_range(bounds):
    lo, hi = bounds
    job, ctx = _worker_job, _worker_ctx
    verdicts = []
    for start in range(lo, hi, apn.WALK_PAIRS):  # one walk's rows at a time bounds the memory
        verdicts += _classify_rows(job, ctx, *_coeff_rows(job, ctx, start, min(start + apn.WALK_PAIRS, hi)))
    return list(zip(range(lo, hi), verdicts))


@dataclass
class SearchSummary:
    job: SearchJob
    total: int
    verdicts: dict
    hits: list
    bucket_count: Optional[int]
    unresolved: bool
    seconds: float

    def as_dict(self):
        return {**asdict(self), "seconds": round(self.seconds, 3)}

    def text(self):
        lines = [
            f"shape={self.job.shape} field={self.job.field} candidates={self.total}",
            "verdict counts:",
        ]
        for k in sorted(self.verdicts):
            lines.append(f"  {k:18s} {self.verdicts[k]}")
        lines.append(f"APN hits: {len(self.hits)}")
        for h in self.hits:
            lines.append(f"  {h}")
        if self.bucket_count is not None:
            lines.append(f"invariant buckets among hits: {self.bucket_count}")
        lines.append(f"elapsed: {self.seconds:.2f}s")
        return "\n".join(lines)


def _scan(job: SearchJob, total, workers):
    """(index, verdict) for every candidate from the cursor on, in index order."""
    chunk = max(256, min(1 << 14, ((total - job.cursor) // max(workers, 1)) + 1))
    ranges = [
        (lo, min(lo + chunk, total)) for lo in range(job.cursor, total, chunk)
    ]
    results = []
    if workers > 1 and len(ranges) > 1:
        mp = multiprocessing.get_context("fork")
        with mp.Pool(workers, initializer=_init_worker, initargs=(job.to_json(),)) as pool:
            for part in pool.map(_run_range, ranges):
                results.extend(part)
    else:
        _init_worker(job.to_json())
        for r in ranges:
            results.extend(_run_range(r))
    return results


def classify_functions(funcs):
    """Bucket realized quadratic functions by invariant profile.

    If a bucket is unresolved at n <= 6 and there are at most ESCALATE_LIMIT
    functions, the GF(3) translate rank joins the same profiles and they are
    partitioned again.  Bucket counts are inequivalence lower bounds.
    Returns (buckets, profiles, escalated).
    """
    profiles = [equiv.profile(F, assume_quadratic=True) for F in funcs]
    buckets = equiv.partition(funcs, profiles=profiles)
    unresolved = any(b["unresolved"] for b in buckets)
    escalated = unresolved and funcs[0].ctx.n <= 6 and len(funcs) <= ESCALATE_LIMIT
    if escalated:
        for F, p in zip(funcs, profiles):
            p.gamma3_rank = equiv.gamma3_rank(F)
        buckets = equiv.partition(funcs, profiles=profiles)
    return buckets, profiles, escalated


def run(job: SearchJob, out_path=None, workers=1):
    """Execute a search job; returns a SearchSummary.

    Scan in batches (filters, then the Form1 rank kernel; no witnesses),
    re-verify the hits on their realized tables (naive oracle at n <= 8, the
    quadratic test over every a above; InternalCheckFailed on a refuted hit),
    classify up to PROFILE_HIT_LIMIT hits at n <= 10, write the records
    (sorted JSON lines) to out_path when given.  Each hit is decoded once;
    only its coefficient text, which the summary lists anyway, is kept.
    Worker count never changes the output: ranges are merged in index order
    and lines sorted.
    """
    t0 = time.time()
    ctx = job.ctx()
    total = job.total_candidates()
    results = _scan(job, total, workers)

    verdict_counts = {}
    for _, verdict in results:
        verdict_counts[verdict] = verdict_counts.get(verdict, 0) + 1

    profiling = 0 < verdict_counts.get("apn", 0) <= PROFILE_HIT_LIMIT and ctx.n <= 10
    hits = {}
    funcs = []
    for i, verdict in results:
        if verdict != "apn":
            continue
        form = _decode(job, ctx, i)
        F = form.realize()
        check = apn.is_apn_naive(F) if ctx.n <= 8 else apn.is_apn_quadratic(F, assume_quadratic=True)
        if not check.is_apn:
            raise InternalCheckFailed(f"hit {i} failed re-verification")
        hits[i] = _coeff_text(job, form)
        if profiling:
            funcs.append(F)

    bucket_count = None
    unresolved = False
    hit_profiles = {}
    if profiling:
        buckets, profiles, _ = classify_functions(funcs)
        bucket_count = len(buckets)
        unresolved = any(b["unresolved"] for b in buckets)
        hit_profiles = {i: p.as_dict() for i, p in zip(hits, profiles)}

    if out_path:
        lines = []
        for i, verdict in results:
            if i in hits:
                lines.append(_record_line(job, ctx, hits[i], verdict, hit_profiles.get(i)))
            elif job.record == "all":
                text = _coeff_text(job, _decode(job, ctx, i))
                lines.append(_record_line(job, ctx, text, verdict, None))
        lines.sort()
        with open(out_path, "w") as fh:
            for line in lines:
                fh.write(line + "\n")

    return SearchSummary(
        job=job,
        total=total - job.cursor,
        verdicts=verdict_counts,
        hits=list(hits.values()),
        bucket_count=bucket_count,
        unresolved=unresolved,
        seconds=time.time() - t0,
    )


def enumerate_binary_L(ctx):
    """All 2^n binary-coefficient linearized polynomials, ascending mask."""
    for mask in range(ctx.order):
        yield linmap.from_mask(ctx, mask)


# -- batched evidence engine for the bent-count relation ------------------------


def conjecture_batch(ctx, l1_coeffs, l2_coeffs):
    """Vector verdicts for a batch of Form1 candidates on even n.

    Returns (apn, bent_counts, dims).  dims[j, lambda - 1] is dim V_lambda of
    candidate j, the radical of the alternating form of its lambda-component.
    apn comes from the subspace-dimension identity: the sum over nonzero
    lambda of (2^dim V_lambda - 1) is at least 2^n - 1, with equality iff the
    candidate is APN.  bent_counts counts the full-rank component forms
    (dim V_lambda == 0).
    """
    l1, l2 = (ctx.expand_linear(linmap.basis_images(ctx, c)) for c in (l1_coeffs, l2_coeffs))
    luts = l1[:, ctx.pow_table(3)] ^ l2[:, ctx.pow_table(9)]
    phi = bilinear_table(luts, 1 << np.arange(ctx.n, dtype=np.int64))
    dims = spectral.radical_dims(ctx, phi)[:, 1:]
    bent = (dims == 0).sum(axis=1)
    apn_flags = ((1 << dims) - 1).sum(axis=1) == ctx.order - 1
    return apn_flags, np.asarray(bent), dims


# -- canned reproduction pipelines ----------------------------------------------


def reproduce(target, **opts):
    """Run a named reproduction pipeline and return a report dict."""
    if target in ("dims_scan", "dims-scan"):
        return reproduce_dims_scan(**opts)
    if target == "table3":
        return reproduce_table3(**opts)
    if target == "dillon":
        return reproduce_dillon()
    if target == "conjecture":
        return reproduce_conjecture(**opts)
    if target in ("ep08", "ep08_consistency"):
        return reproduce_ep08()
    raise ValueError(f"unknown reproduction target {target!r}")


def reproduce_dims_scan(max_n=16, min_n=4):
    """Dimensions where x^9 + Tr(x^3) is APN."""
    items = []
    found = []
    for n in range(min_n, max_n + 1):
        ctx = mk_field(n)
        form = Form1(linmap.trace_map(ctx), linmap.identity(ctx))
        t0 = time.time()
        verdict = apn.is_apn_lemma1(form)
        if verdict.is_apn:
            found.append(n)
        items.append({"n": n, "apn": verdict.is_apn, "seconds": round(time.time() - t0, 3)})
    expected = sorted(catalog.X9_TR3_APN_DIMS & set(range(min_n, max_n + 1)))
    return {
        "target": "dims_scan",
        "items": items,
        "found_dims": found,
        "expected_dims": expected,
        "ok": found == expected,
    }


def reproduce_table3(ns=None, n9_samples=1_000_000, seed=0, workers=1):
    """Verify the catalogued x^9+L(x^3) representatives and class counts."""
    if ns is None:
        ns = list(range(4, 11))
    items = []
    ok_all = True
    for n in ns:
        ctx = mk_field(n)
        reps = catalog.X9L_REPRESENTATIVES[n]
        expected = catalog.EXPECTED_CLASS_COUNTS[n]
        entry = {"n": n, "representatives": len(reps), "expected_classes": expected}
        if n == 9:
            binary = run(
                SearchJob(field=f"n={n}", shape="x9_plus_L_binary"), workers=workers
            )
            rand = run(
                SearchJob(
                    field=f"n={n}",
                    shape="x9_plus_L_full",
                    sample_count=n9_samples,
                    seed=seed,
                ),
                workers=workers,
            )
            entry["binary_hits"] = len(binary.hits)
            entry["random_hits"] = len(rand.hits)
            entry["random_samples"] = n9_samples
            entry["buckets"] = 0
            entry["ok"] = not binary.hits and not rand.hits
            items.append(entry)
            ok_all &= entry["ok"]
            continue
        funcs = []
        verdicts = []
        for i in range(len(reps)):
            form = catalog.x9_rep(n, i)
            F = form.realize()
            v = apn.is_apn_quadratic(form)
            if n <= 8 and apn.is_apn_naive(F).is_apn != v.is_apn:
                raise InternalCheckFailed(
                    f"representative {i} at n={n}: quadratic and naive APN tests disagree"
                )
            verdicts.append(v.is_apn)
            funcs.append(F)
        buckets, _, escalated = classify_functions(funcs)
        entry["all_apn"] = all(verdicts)
        entry["buckets"] = len(buckets)
        entry["unresolved"] = any(b["unresolved"] for b in buckets)
        entry["escalated_invariants"] = escalated
        entry["ok"] = (
            entry["all_apn"] and entry["buckets"] == expected and not entry["unresolved"]
        )
        items.append(entry)
        ok_all &= entry["ok"]
    return {"target": "table3", "items": items, "ok": ok_all}


def reproduce_dillon():
    F = catalog.dillon6()
    apn_ok = apn.is_apn_naive(F).is_apn
    bent = spectral.bent_components(F)
    bound = 2 * (F.ctx.order - 1) // 3
    return {
        "target": "dillon",
        "apn": apn_ok,
        "bent_components": bent,
        "relation_bound": bound,
        "exceeds_bound": bent > bound,
        "note": (
            "quadratic APN counterexample to the bent-count relation for "
            "functions outside the L1(x^3)+L2(x^9) family"
        ),
        "ok": apn_ok and bent == 46 and bent != bound,
    }


def _conjecture_batches(sample_counts, seed):
    """(n, mode, first index, L1|L2 coefficient rows) in a fixed order."""
    masks = np.arange(1 << 8)
    yield 4, "exhaustive-binary", 0, (masks[:, None] >> np.arange(8)) & 1
    for n, count in sorted(sample_counts.items()):
        batch = max(64, min(512, count))
        for done in range(0, count, batch):
            indices = np.arange(done, min(done + batch, count))
            yield n, "sampled", done, rng_values(seed, indices, 2 * n, 1 << n)


def reproduce_conjecture(sample_counts=None, seed=0, artifact_dir=None):
    """Evidence for the bent-count relation on the family.

    The relation reads "APN <=> exactly (2/3)(2^n - 1) bent components".
    The scan is exhaustive over binary Form1 at n=4 and sampled at n=6 and
    n=8.  Each exception to the two-sided relation has one of two kinds:

    - ``apn_off_target``: an APN member whose bent count is not
      (2/3)(2^n - 1).  It refutes the forward half and fails the run.
    - ``target_not_apn``: a non-APN member with exactly (2/3)(2^n - 1) bent
      components, a counterexample to the converse, which is false for the
      family at n=8.  It carries its dim V_lambda histogram.  Radicals of a
      quadratic map on even n have even dimension, so if every non-bent
      component had a 2-dimensional radical the pair count
      sum (2^dim V_lambda - 1) would be exactly 2^n - 1 and the member would
      be APN.  Such an entry therefore fails the run only if its histogram
      has no radical of dimension >= 4.

    Each item counts both kinds; every exception is dumped to
    artifact_dir/bent_count_counterexamples.json when a directory is given.
    """
    if sample_counts is None:
        sample_counts = {6: 100_000, 8: 100_000}
    items = {}
    exceptions = []
    ok = True
    for n, mode, start, coeffs in _conjecture_batches(sample_counts, seed):
        target = 2 * ((1 << n) - 1) // 3
        apn_flags, bents, dims = conjecture_batch(mk_field(n), coeffs[:, :n], coeffs[:, n:])
        item = items.setdefault(
            (n, mode),
            {
                "n": n,
                "mode": mode,
                "candidates": 0,
                "apn_count": 0,
                "exceptions": 0,
                "apn_off_target": 0,
                "target_not_apn": 0,
            },
        )
        item["candidates"] += len(coeffs)
        item["apn_count"] += int(apn_flags.sum())
        for i in np.nonzero(apn_flags != (bents == target))[0]:
            kind = "apn_off_target" if apn_flags[i] else "target_not_apn"
            item["exceptions"] += 1
            item[kind] += 1
            ok &= kind == "target_not_apn" and int(dims[i].max()) >= 4
            values, counts = np.unique(dims[i], return_counts=True)
            exceptions.append(
                {
                    "n": n,
                    "index": start + int(i),
                    "L1": [int(c) for c in coeffs[i, :n]],
                    "L2": [int(c) for c in coeffs[i, n:]],
                    "apn": bool(apn_flags[i]),
                    "bent": int(bents[i]),
                    "kind": kind,
                    "dims": {str(d): int(c) for d, c in zip(values, counts)},
                }
            )
    if exceptions and artifact_dir:
        os.makedirs(artifact_dir, exist_ok=True)
        path = os.path.join(artifact_dir, "bent_count_counterexamples.json")
        with open(path, "w") as fh:
            json.dump(exceptions, fh, indent=2)
    return {
        "target": "conjecture",
        "items": list(items.values()),
        "exceptions": exceptions,
        "ok": ok,
    }


def reproduce_ep08():
    """Profile-consistency checks for the catalogued equivalence claims."""
    items = []
    ok_all = True
    for label, F, relation, G in catalog.equivalence_claims():
        pf = equiv.profile(F)
        pg = equiv.profile(G)
        same = pf.key() == pg.key()
        ok = same if relation == "equal" else not same
        items.append(
            {
                "claim": label,
                "relation": relation,
                "profiles_match": same,
                "status": "unresolved-consistent" if same else "distinct",
                "ok": ok,
            }
        )
        ok_all &= ok
    # the two n=8 representatives reported inequivalent to every member of
    # the x^3 + a^-1 Tr(a^3 x^9) family
    ctx = mk_field(8)
    fam_profiles = set()
    for e in range(ctx.order - 1):
        Fa = apn.family("tr9", ctx, ctx.alpha_pow(e))
        fam_profiles.add(equiv.profile(Fa).key())
    for idx in (4, 5):
        F = catalog.x9_rep(8, idx).realize()
        k = equiv.profile(F).key()
        ok = k not in fam_profiles
        items.append(
            {
                "claim": f"n8 rep{idx} differs from whole tr9 family",
                "relation": "differs",
                "profiles_match": not ok,
                "status": "distinct" if ok else "collision",
                "ok": ok,
            }
        )
        ok_all &= ok
    return {"target": "ep08_consistency", "items": items, "ok": ok_all}


def render_report(report):
    """Plain-text rendering of a reproduction report."""
    lines = [f"[{report['target']}] ok={report['ok']}"]
    if report["target"] == "dims_scan":
        lines.append("APN dims: " + " ".join(str(n) for n in report["found_dims"]))
    for key in ("expected_dims", "apn", "bent_components"):
        if key in report:
            lines.append(f"  {key}: {report[key]}")
    for item in report.get("items", []):
        parts = [f"{k}={v}" for k, v in item.items()]
        lines.append("  " + " ".join(parts))
    if report.get("note"):
        lines.append("  note: " + report["note"])
    return "\n".join(lines)
