"""The benchmark's workloads: the job one round runs, and the checks made after timing.

A workload object is built from the run's seed and output directory.
``setup(pkg)`` is what a job pays before its first candidate: it builds the
field contexts with their power and trace tables, and the job.  ``round()``
runs the job once through the public API of ``pkg`` (the imported
``apn_forge``) and returns a :class:`Round`.  ``check(rounds)`` re-decides
the outputs with :mod:`oracle` and returns a :class:`Check`.

Module attributes of ``pkg`` are looked up on every call, so a traced run
sees the wrapped entry points.  This module imports nothing heavy, so the
set-up probe can time ``import apn_forge`` from a clean interpreter.
"""

import hashlib
import json
import random
import time
from dataclasses import dataclass, field


@dataclass
class Round:
    """One run of the job: its candidates, APN hits, wall seconds, output and
    CPU seconds of the thread that ran it."""

    candidates: int
    hits: int
    seconds: float
    output: object
    cpu_s: float


def _timed(fn, *args, **kwargs):
    t0, c0 = time.perf_counter(), time.thread_time()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0, time.thread_time() - c0


@dataclass
class Check:
    """Outcome of the checks: one operation per candidate of every round."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def problem(self, text):
        if len(self.problems) < 20:
            self.problems.append(text)


def _build_fields(pkg, degrees):
    for n in degrees:
        ctx = pkg.field.mk_field(n)
        ctx.pow_table(3)
        ctx.pow_table(9)
        ctx.trace_table()


def _binary_rows(n, count):
    """Coefficient rows of the binary linearized polynomials with masks 0..count-1."""
    return [[(mask >> i) & 1 for i in range(n)] for mask in range(count)]


def _oracle_apn(n, l1_rows, l2_rows):
    import numpy as np

    import oracle

    fld = oracle.Field(n)
    l1, l2 = np.asarray(l1_rows, dtype=np.int64), np.asarray(l2_rows, dtype=np.int64)
    flags = [
        oracle.is_apn(oracle.form1_tables(fld, l1[lo : lo + 512], l2[lo : lo + 512]))
        for lo in range(0, len(l1), 512)
    ]
    return fld, np.concatenate(flags)


def _mask_of(text):
    return sum(int(tok, 16) << i for i, tok in enumerate(text.split(",")))


class ScanX9BinaryN13:
    """search.run over all 8192 binary L of x^9 + L(x^3) at n = 13."""

    n = 13
    degrees = (13,)

    def __init__(self, seed, outdir):
        # The job is exhaustive, so the seed selects nothing.
        self.seed = seed
        self.outdir = outdir

    def setup(self, pkg):
        self.pkg = pkg
        _build_fields(pkg, self.degrees)
        self.job = pkg.search.SearchJob(field=f"n={self.n}", shape="x9_plus_L_binary")
        self.job.ctx()

    def round(self):
        summary, seconds, cpu_s = _timed(self.pkg.search.run, self.job, workers=1)
        return Round(summary.total, len(summary.hits), seconds, summary, cpu_s)

    def check(self, rounds):
        import numpy as np

        count = 1 << self.n
        identity = [[1] + [0] * (self.n - 1)] * count
        _, truth = _oracle_apn(self.n, _binary_rows(self.n, count), identity)
        out = Check()
        if not truth[0]:
            out.problem("oracle: x^9 (mask 0) is a Gold map at n = 13 and must be APN")
        expected = set(np.nonzero(truth)[0].tolist())
        for r in rounds:
            s = r.output
            hits = {_mask_of(t) for t in s.hits}
            if s.total != count or sum(s.verdicts.values()) != count:
                out.problem(f"summary counts {s.total} / {s.verdicts}, expected {count}")
            if s.verdicts.get("apn", 0) != len(s.hits):
                out.problem(f"verdict counts {s.verdicts} disagree with {len(s.hits)} hits")
            if 0 not in hits:
                out.problem("mask 0 (x^9) is missing from the hits")
            out.attempted += r.candidates
            out.failed += min(r.candidates, len(hits ^ expected))
        return out


class _RecordedScan:
    """search.run with record="all"; every round writes the record file.

    The bytes of each distinct file are kept by digest, so the checks can
    parse them once and see whether every write was byte-identical.
    """

    def __init__(self, seed, outdir):
        self.seed = seed
        self.outdir = outdir
        self.writes = 0
        self.contents = {}

    def setup(self, pkg):
        self.pkg = pkg
        _build_fields(pkg, self.degrees)
        self.job = pkg.search.SearchJob(record="all", **self.job_fields())
        self.job.ctx()

    def round(self):
        path = self.outdir / f"records-{self.writes % 2}.jsonl"
        summary, seconds, cpu_s = _timed(self.pkg.search.run, self.job, out_path=str(path), workers=1)
        self.writes += 1
        data = path.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        self.contents.setdefault(digest, data)
        return Round(summary.total, len(summary.hits), seconds, (summary, digest), cpu_s)


class ScanForm1RandomN12(_RecordedScan):
    """search.run on form1_random at n = 12, every verdict written to a record file."""

    n = 12
    degrees = (12,)
    samples = 3000

    def job_fields(self):
        return dict(
            field=f"n={self.n}", shape="form1_random", sample_count=self.samples, seed=self.seed
        )

    def check(self, rounds):
        import oracle

        n, order = self.n, 1 << self.n
        rows = [oracle.sample(self.seed, i, 2 * n, order) for i in range(self.samples)]
        _, truth = _oracle_apn(n, [r[:n] for r in rows], [r[n:] for r in rows])
        expected = {}
        for r, apn in zip(rows, truth):
            key = (tuple(format(c, "x") for c in r[:n]), tuple(format(c, "x") for c in r[n:]))
            expected[key] = bool(apn)
        apn_count = sum(expected.values())
        out = Check()
        if len(expected) != self.samples:
            out.problem("the reference sampler drew a repeated candidate")
        bad_by_digest = {d: self._bad_records(data, expected, out) for d, data in self.contents.items()}
        if len(self.contents) != 1:
            out.problem(f"{len(self.contents)} distinct record files from one job and seed")
        for r in rounds:
            summary, digest = r.output
            if summary.total != self.samples or len(summary.hits) != apn_count:
                out.problem(
                    f"summary total {summary.total}, {len(summary.hits)} hits, oracle {apn_count}"
                )
            out.attempted += r.candidates
            out.failed += min(r.candidates, bad_by_digest[digest])
        return out

    def _bad_records(self, data, expected, out):
        lines = data.decode().splitlines()
        if lines != sorted(lines):
            out.problem("record lines are not sorted")
        seen = set()
        bad = abs(len(lines) - len(expected))
        for line in lines:
            rec = json.loads(line)
            key = (tuple(rec["L1"]), tuple(rec["L2"]))
            truth = expected.get(key)
            if truth is None or key in seen:
                out.problem(f"record {key} is not one of the sampled candidates, or repeats")
                bad += 1
            elif (rec["verdict"] == "apn") != truth:
                out.problem(f"verdict {rec['verdict']} of {key} refuted by the oracle")
                bad += 1
            seen.add(key)
        return bad


class ConjectureN6N8:
    """reproduce_conjecture: n = 4 exhaustive binary, seeded samples at n = 6 and 8."""

    sample_counts = {6: 2048, 8: 2048}
    degrees = (4, 6, 8)
    bent_subset = 32

    def __init__(self, seed, outdir):
        self.seed = seed
        self.outdir = outdir

    def setup(self, pkg):
        self.pkg = pkg
        _build_fields(pkg, self.degrees)

    def round(self):
        report, seconds, cpu_s = _timed(
            self.pkg.search.reproduce_conjecture,
            sample_counts=dict(self.sample_counts),
            seed=self.seed,
        )
        items = report["items"]
        candidates = sum(i["candidates"] for i in items)
        return Round(candidates, sum(i["apn_count"] for i in items), seconds, report, cpu_s)

    def candidate_rows(self):
        """{n: (mode, L1 | L2 rows)}, each row at the index the job gives it."""
        import oracle

        rows = {4: ("exhaustive-binary", _binary_rows(8, 256))}
        for n, count in sorted(self.sample_counts.items()):
            rows[n] = ("sampled", [oracle.sample(self.seed, i, 2 * n, 1 << n) for i in range(count)])
        return rows

    def check(self, rounds):
        import numpy as np

        import oracle

        rng = random.Random(self.seed)
        out = Check()
        bad = 0
        items, exceptions = [], []
        expect_ok = True
        for n, (mode, row_list) in self.candidate_rows().items():
            rows = np.array(row_list, dtype=np.int64)
            ctx = self.pkg.field.mk_field(n)
            parts = [
                self.pkg.search.conjecture_batch(ctx, rows[lo : lo + 512, :n], rows[lo : lo + 512, n:])
                for lo in range(0, len(rows), 512)
            ]
            apn, bent, dims = (np.concatenate([p[k] for p in parts]) for k in range(3))
            fld, truth = _oracle_apn(n, rows[:, :n], rows[:, n:])
            order = 1 << n
            target = 2 * (order - 1) // 3
            pair_count = ((1 << dims) - 1).sum(axis=1)
            wrong = (
                (apn != truth)
                | (dims % 2 != 0).any(axis=1)
                | (pair_count < order - 1)
                | ((pair_count == order - 1) != truth)
                | (bent != (dims == 0).sum(axis=1))
            )
            exc = np.nonzero(apn != (bent == target))[0]
            walsh_checked = set(rng.sample(range(len(rows)), self.bent_subset)) | set(exc.tolist())
            tables = oracle.form1_tables(fld, rows[:, :n], rows[:, n:])
            for j in sorted(walsh_checked):
                if oracle.bent_count(fld, tables[j]) != bent[j]:
                    wrong[j] = True
            for j in np.nonzero(wrong)[0][:3]:
                out.problem(
                    f"n={n} candidate {j}: apn {apn[j]} (oracle {truth[j]}), "
                    f"bent {bent[j]}, dims {sorted(set(dims[j].tolist()))}"
                )
            bad += int(wrong.sum())
            items.append((n, mode, len(rows), int(truth.sum())))
            for j in exc:
                kind = "apn_off_target" if truth[j] else "target_not_apn"
                expect_ok &= kind == "target_not_apn" and int(dims[j].max()) >= 4
                row = row_list[j]
                exceptions.append((n, int(j), tuple(row[:n]), tuple(row[n:]), kind, int(bent[j])))
        for r in rounds:
            report = r.output
            got_items = [
                (i["n"], i["mode"], i["candidates"], i["apn_count"]) for i in report["items"]
            ]
            got_exc = [
                (e["n"], e["index"], tuple(e["L1"]), tuple(e["L2"]), e["kind"], e["bent"])
                for e in report["exceptions"]
            ]
            round_bad = bad
            if got_items != items or got_exc != exceptions:
                out.problem(f"report items {got_items} or exceptions disagree with the oracle")
                round_bad = r.candidates
            if report["ok"] != expect_ok:
                out.problem(f"report ok={report['ok']}, the oracle's exceptions give {expect_ok}")
                round_bad = r.candidates
            out.attempted += r.candidates
            out.failed += min(r.candidates, round_bad)
        return out

    def largest_batch(self):
        """(ctx, L1, L2) of the job's largest batch, for the memory probe."""
        import numpy as np

        n = max(self.sample_counts)
        rows = np.array(self.candidate_rows()[n][1][:512], dtype=np.int64)
        return self.pkg.field.mk_field(n), rows[:, :n], rows[:, n:]


class ClassifyHitsN5(_RecordedScan):
    """search.run on x9_plus_L_binary at n = 5, every verdict and hit profile recorded."""

    n = 5
    degrees = (5,)

    def job_fields(self):
        return dict(field=f"n={self.n}", shape="x9_plus_L_binary")

    def check(self, rounds):
        import numpy as np

        import oracle

        n, order = self.n, 1 << self.n
        identity = [[1] + [0] * (n - 1)] * order
        fld, truth = _oracle_apn(n, _binary_rows(n, order), identity)
        tables = oracle.form1_tables(fld, _binary_rows(n, order), identity).astype(np.int64)
        ctx = self.pkg.field.mk_field(n)
        ab = 1 << ((n + 1) // 2)
        out = Check()
        if len(self.contents) != 1:
            out.problem(f"{len(self.contents)} distinct record files from one job")
        bad_by_digest = {}
        for digest, data in self.contents.items():
            bad = 0
            rng = random.Random(self.seed)
            lines = data.decode().splitlines()
            if lines != sorted(lines) or len(lines) != order:
                out.problem("record file is not the sorted list of all candidates")
                bad = order
            for line in lines:
                rec = json.loads(line)
                mask = _mask_of(",".join(rec["L"]))
                if (rec["verdict"] == "apn") != bool(truth[mask]):
                    out.problem(f"verdict {rec['verdict']} of mask {mask} refuted by the oracle")
                    bad += 1
                    continue
                if rec["verdict"] != "apn":
                    continue
                prof = rec["profile"]
                walsh = oracle.ext_walsh(fld, tables[mask])
                G = oracle.random_ea_transform(n, tables[mask], rng)
                moved = self.pkg.equiv.profile(
                    self.pkg.vbf.VBF(ctx, G), assume_quadratic=True, with_gamma3=True
                ).as_dict()
                if (
                    set(walsh) != {0, ab}
                    or prof["ext_walsh"] != {str(k): v for k, v in walsh.items()}
                    or prof["diff_spectrum"]
                    != {str(k): v for k, v in oracle.diff_spectrum(tables[mask]).items()}
                    or json.loads(json.dumps(moved)) != prof
                ):
                    out.problem(f"hit mask {mask}: profile fails a spectrum or EA check")
                    bad += 1
            bad_by_digest[digest] = bad
        for r in rounds:
            summary, digest = r.output
            if len(summary.hits) != int(truth.sum()):
                out.problem(f"{len(summary.hits)} hits, oracle finds {int(truth.sum())}")
            out.attempted += r.candidates
            out.failed += min(r.candidates, bad_by_digest[digest])
        return out


WORKLOADS = {
    "scan-x9-binary-n13": ScanX9BinaryN13,
    "scan-form1-random-n12": ScanForm1RandomN12,
    "conjecture-n6-n8": ConjectureN6N8,
    "classify-hits-n5": ClassifyHitsN5,
}
