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

from . import apn, catalog, equiv, f2, linmap, spectral
from .errors import BadDimension, InternalCheckFailed, InvalidJob, JobTooLarge
from .field import MAX_DEGREE, mk_field, parse_field_spec
from .vbf import DDT_BLOCK, VBF, Form1, bilinear_table

EXHAUSTIVE_LIMIT = 1 << 26

# Hits are profiled only up to this many: each profile takes the differential
# spectra of a hit and of its ortho-derivative and the Walsh spectrum of the
# ortho-derivative, about 0.08 ms at n = 5, 3.3 ms at n = 8 and 52 ms at n = 10
# in chunks (CPU, one core of a 2-core x86-64 machine), and a bucket count says
# little over thousands of hits (the 20160 at n = 4 are one class).
PROFILE_HIT_LIMIT = 2048

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
        for flag in ("use_parity", "use_nonzero", "use_beta"):
            if not isinstance(getattr(self, flag), bool):
                raise InvalidJob(f"{flag} must be true or false, got {getattr(self, flag)!r}")
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


def _coeff_rows(job: SearchJob, ctx, indices):
    """The candidates indices as (c1, c2).  The binary shapes give 1-D int
    masks of their 0/1 coefficients, bit k = c_k: x9_plus_L_binary the index
    and L2(x) = x, form1_binary the low and high n bits of the index.  The
    other shapes give coefficient rows of shape (len(indices), n)."""
    n = ctx.n
    idx = np.asarray(indices, dtype=np.int64)
    if job.shape == "form1_binary":
        return idx & (ctx.order - 1), idx >> n
    if job.shape == "x9_plus_L_binary":
        return idx, np.ones_like(idx)  # L2(x) = x
    if job.shape == "form1_random":
        coeffs = rng_values(job.seed, idx, 2 * n, ctx.order)
        return coeffs[:, :n], coeffs[:, n:]
    shifts = np.arange(n, dtype=np.int64)
    if job.sample_count is None:
        c1 = (idx[:, None] >> (n * shifts)) & (ctx.order - 1)
    else:
        c1 = rng_values(job.seed, idx, n, ctx.order)
    return c1, np.broadcast_to(shifts == 0, c1.shape).astype(np.int64)  # L2(x) = x


def _hex_lists(ctx, c):
    """The hex coefficient list of each candidate of one side c of _coeff_rows:
    a mask's bits are its coefficients, so its list is its binary digits,
    lowest first."""
    if c.ndim == 1:
        return [list(format(m, f"0{ctx.n}b")[::-1]) for m in c.tolist()]
    return [[format(v, "x") for v in row] for row in c.tolist()]


def _candidate_batches(job: SearchJob, ctx, indices, size=apn.WALK_PAIRS):
    """(indices, c1, c2, hexes) per size candidates of indices: the
    _coeff_rows and, per candidate, the hex coefficient lists the records
    show: [L] or [L1, L2]."""
    for lo in range(0, len(indices), size):
        idx = indices[lo : lo + size]
        c1, c2 = _coeff_rows(job, ctx, idx)
        sides = (c1,) if job.shape.startswith("x9") else (c1, c2)
        yield idx, c1, c2, list(zip(*(_hex_lists(ctx, c) for c in sides)))


def _candidates(job: SearchJob, ctx, indices):
    """(index, c1, c2, hex) per candidate of indices, with c1 and c2 as masks
    (binary shapes) or lists."""
    for idx, c1, c2, hexes in _candidate_batches(job, ctx, indices):
        yield from zip(idx.tolist(), c1.tolist(), c2.tolist(), hexes)


def _form1_luts(ctx, c1, c2):
    """LUTs of L1(x^3) + L2(x^9) for each candidate of (c1, c2), masks or
    coefficient rows as _coeff_rows gives them, equal to the Form1's
    realize()."""
    basis = 1 << np.arange(ctx.n, dtype=np.int64)

    def table(c):
        c = np.asarray(c)
        images = linmap.apply_binary(ctx, c, basis).astype(np.int64) if c.ndim == 1 else linmap.basis_images(ctx, c)
        return f2.expand_linear(images)

    l1, l2 = table(c1), table(c2)
    return np.take(l1, ctx.pow_table(3), axis=1) ^ np.take(l2, ctx.pow_table(9), axis=1)


# Verdicts in code order; a scan keeps one uint8 code per candidate.
VERDICTS = ("apn", "fail", "rejected:parity", "rejected:nonzero", "rejected:beta")
APN = 0


def _classify_rows(job: SearchJob, ctx, c1, c2):
    """Verdict codes of a batch: the enabled filters in order, each on the
    rows the earlier ones kept, then the Form1 rank kernel on the survivors."""
    even = ctx.n % 2 == 0
    stages = (
        ("rejected:parity", even and job.use_parity, apn.parity_mask),
        ("rejected:nonzero", even and job.use_nonzero, lambda a, b: apn.nonzero_scan(ctx, a, b) >= 0),
        ("rejected:beta", even and job.use_beta and ctx.n % 3 == 0, lambda a, b: apn.beta_scan(ctx, a) >= 0),
        ("fail", True, lambda a, b: apn.form1_rank_scan(ctx, a, b) >= 0),
    )
    codes = np.full(len(c1), APN, dtype=np.uint8)
    alive = np.arange(len(c1))
    for verdict, enabled, rejects in stages:
        if enabled and alive.size:
            out = rejects(c1[alive], c2[alive])
            codes[alive[out]] = VERDICTS.index(verdict)
            alive = alive[~out]
    return codes


def _record_line(job: SearchJob, ctx, hexes, verdict, profile_dict):
    keys = ("L",) if job.shape.startswith("x9") else ("L1", "L2")
    rec = dict(zip(keys, hexes))
    rec.update(shape=job.shape, n=ctx.n, verdict=verdict, profile=profile_dict)
    return json.dumps(rec, sort_keys=True)


def _run_range(job: SearchJob, bounds):
    ctx = job.ctx()
    idx = np.arange(*bounds)
    # Masks take the whole range in one walk; coefficient rows go one walk
    # slice at a time, which bounds the memory of their decoding.
    step = len(idx) if job.shape.endswith("_binary") else apn.WALK_PAIRS
    rows = (_coeff_rows(job, ctx, idx[s : s + step]) for s in range(0, len(idx), step))
    return np.concatenate([_classify_rows(job, ctx, c1, c2) for c1, c2 in rows])


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
    """The verdict code of every candidate from the cursor on, in index order."""
    chunk = max(256, min(1 << 14, ((total - job.cursor) // max(workers, 1)) + 1))
    ranges = [
        (lo, min(lo + chunk, total)) for lo in range(job.cursor, total, chunk)
    ]
    if workers > 1 and len(ranges) > 1:
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            parts = pool.starmap(_run_range, [(job, r) for r in ranges])
    else:
        parts = [_run_range(job, r) for r in ranges]
    return np.concatenate([np.zeros(0, dtype=np.uint8)] + parts)


def run(job: SearchJob, out_path=None, workers=1):
    """Execute a search job; returns a SearchSummary.

    Scan in batches (filters, then the Form1 rank kernel; no witnesses),
    re-verify the hits on their realized tables, DDT_BLOCK table entries at a
    time (the batched naive count at n <= 8, the batched quadratic test over
    every a above; InternalCheckFailed on a refuted hit), classify up to
    PROFILE_HIT_LIMIT hits at n <= 10, write the records
    (sorted JSON lines) to out_path when given.  Records and the summary's
    hit text ("L" or "L1;L2") are built from the candidates as _coeff_rows
    decodes them (masks for the binary shapes), a batch at a time; of a hit
    only its hex coefficient lists are kept.
    Worker count never changes the output: ranges are merged in index order
    and lines sorted.
    """
    t0 = time.time()
    ctx = job.ctx()
    total = job.total_candidates()
    codes = _scan(job, total, workers)
    counts = np.bincount(codes, minlength=len(VERDICTS))
    verdict_counts = {v: int(c) for v, c in zip(VERDICTS, counts) if c}

    profiling = 0 < counts[APN] <= PROFILE_HIT_LIMIT and ctx.n <= 10
    verify = apn.batch_is_apn_naive if ctx.n <= 8 else apn.batch_is_apn_quadratic
    hits = {}
    funcs = []
    batch = max(1, DDT_BLOCK // ctx.order)  # larger batches ran slower at n = 8
    for idx, c1, c2, hexes in _candidate_batches(job, ctx, job.cursor + np.nonzero(codes == APN)[0], batch):
        luts = _form1_luts(ctx, c1, c2)
        refuted = np.flatnonzero(~verify(luts))
        if refuted.size:
            raise InternalCheckFailed(f"hit {idx[refuted[0]]} failed re-verification")
        hits.update(zip(idx.tolist(), hexes))
        if profiling:
            funcs += [VBF(ctx, lut) for lut in luts]

    bucket_count = None
    unresolved = False
    hit_profiles = {}
    if profiling:
        buckets, profiles, _ = equiv.classify(funcs)
        bucket_count = len(buckets)
        unresolved = any(b["unresolved"] for b in buckets)
        hit_profiles = {i: p.as_dict() for i, p in zip(hits, profiles)}

    if out_path:
        lines = [_record_line(job, ctx, hexes, "apn", hit_profiles.get(i)) for i, hexes in hits.items()]
        if job.record == "all":
            for i, _, _, hexes in _candidates(job, ctx, job.cursor + np.nonzero(codes != APN)[0]):
                lines.append(_record_line(job, ctx, hexes, VERDICTS[codes[i - job.cursor]], None))
        lines.sort()
        with open(out_path, "w") as fh:
            for line in lines:
                fh.write(line + "\n")

    return SearchSummary(
        job=job,
        total=total - job.cursor,
        verdicts=verdict_counts,
        hits=[";".join(",".join(h) for h in hexes) for hexes in hits.values()],
        bucket_count=bucket_count,
        unresolved=unresolved,
        seconds=time.time() - t0,
    )


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
    luts = _form1_luts(ctx, l1_coeffs, l2_coeffs)
    phi = bilinear_table(luts, 1 << np.arange(ctx.n, dtype=np.int64))
    dims = spectral.radical_dims(ctx, phi)[:, 1:]
    bent = (dims == 0).sum(axis=1)
    apn_flags = ((1 << dims) - 1).sum(axis=1) == ctx.order - 1
    return apn_flags, np.asarray(bent), dims


# -- canned reproduction pipelines ----------------------------------------------


def reproduce(target, **opts):
    """Run a named reproduction pipeline and return a report dict."""
    if target == "dims_scan":
        return reproduce_dims_scan(**opts)
    if target == "table3":
        return reproduce_table3(**opts)
    if target == "dillon":
        return reproduce_dillon()
    if target == "conjecture":
        return reproduce_conjecture(**opts)
    if target == "ep08":
        return reproduce_ep08()
    raise ValueError(f"unknown reproduction target {target!r}")


def reproduce_dims_scan(max_n=16):
    """Dimensions where x^9 + Tr(x^3) is APN, over n = 4..max_n."""
    if not 4 <= max_n <= MAX_DEGREE:
        raise BadDimension(f"dims_scan needs max_n in 4..{MAX_DEGREE}, not {max_n}")
    items = []
    found = []
    for n in range(4, max_n + 1):
        ctx = mk_field(n)
        form = Form1(linmap.trace_map(ctx), linmap.identity(ctx))
        t0 = time.time()
        verdict = apn.is_apn_lemma1(form)
        if verdict.is_apn:
            found.append(n)
        items.append({"n": n, "apn": verdict.is_apn, "seconds": round(time.time() - t0, 3)})
    expected = sorted(catalog.X9_TR3_APN_DIMS & set(range(4, max_n + 1)))
    return {
        "target": "dims_scan",
        "items": items,
        "found_dims": found,
        "expected_dims": expected,
        "ok": found == expected,
    }


def reproduce_table3(ns=None, n9_samples=1_000_000, seed=0, workers=1):
    """Verify the catalogued x^9+L(x^3) representatives and class counts."""
    known = sorted(catalog.X9L_REPRESENTATIVES)
    if ns is None:
        ns = known
    for n in ns:
        if n not in known:
            raise BadDimension(f"table3 catalogues n = {', '.join(map(str, known))}, not n = {n}")
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
        forms = [catalog.x9_rep(n, i) for i in range(len(reps))]
        funcs = [form.realize() for form in forms]
        verdicts = [apn.is_apn_quadratic(form).is_apn for form in forms]
        if n <= 8:
            differ = np.flatnonzero(apn.batch_is_apn_naive([F.lut for F in funcs]) != verdicts)
            if differ.size:
                raise InternalCheckFailed(
                    f"representative {differ[0]} at n={n}: quadratic and naive APN tests disagree"
                )
        buckets, _, escalated = equiv.classify(funcs)
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
