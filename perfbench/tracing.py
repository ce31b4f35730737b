"""Spans around the public entry points of apn_forge, for the traced run.

The tracer wraps every public function and public method defined in the
layers below, and rebinds each name in every module of the package that
imported it, so calls between modules pass through the wrappers too.  A span
records its name and the name of the span that was open when it started;
spans are aggregated in memory by (name, parent) into calls, total seconds
and self seconds.  The self times of all spans add up to the time covered by
the outermost spans.  Scalar ``FieldCtx.mul`` calls are counted, not timed.
"""

import functools
import inspect
import sys
import time
import weakref
from collections import Counter

LAYERS = ("field", "linmap", "vbf", "f2", "apn", "spectral", "equiv", "search")
COUNTED = {"field.FieldCtx.mul"}
FILTERS = ("apn.quick_reject_parity", "apn.quick_reject_nonzero", "apn.quick_reject_beta")
SPECTRA = ("equiv.extended_walsh", "equiv.diff_spectrum", "equiv.ortho_derivative")
LUT = "linmap.LinearizedPoly.lut"
TOP = 15  # rows listed by inclusive_shares and by cprofile_shares.py


class Tracer:
    def __init__(self):
        self.stack = []
        self.spans = {}  # (name, parent) -> [calls, total_s, self_s]
        self.counts = Counter()
        self._patches = []
        self._lut_owners = {}
        self._notes = {LUT: self._note_lut, "f2.batch_rank": self._note_batch_rank}
        for name in FILTERS:
            self._notes[name] = self._note_filter

    # -- installing ---------------------------------------------------------

    def install(self, pkg):
        wrapped = {}
        for layer in LAYERS:
            mod = getattr(pkg, layer)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj):
                    for meth_name, meth in list(vars(obj).items()):
                        if not meth_name.startswith("_") and inspect.isfunction(meth):
                            wrapper = self._wrap(f"{layer}.{obj.__name__}.{meth_name}", meth)
                            self._patch(obj, meth_name, wrapper)
        prefix = pkg.__name__ + "."
        modules = [m for k, m in list(sys.modules.items()) if k == pkg.__name__ or k.startswith(prefix)]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patch(mod, attr, entry[1])

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn):
        if name in COUNTED:
            counts = self.counts

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        stack, spans, clock = self.stack, self.spans, time.perf_counter
        note = self._notes.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                rec = spans.get((name, parent))
                if rec is None:
                    rec = spans[(name, parent)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
            if note is not None:
                note(args, result, dur)
            return result

        return span

    # -- counts taken where the work happens ----------------------------------

    def _note_lut(self, args, result, dur):
        """The first lut() call on a polynomial builds its table."""
        key = id(args[0])
        if key in self._lut_owners:
            return
        owners = self._lut_owners
        owners[key] = weakref.ref(args[0], lambda _ref: owners.pop(key, None))
        self.counts["linmap.lut.builds"] += 1
        self.counts["linmap.lut.build_s"] += dur

    def _note_filter(self, args, result, dur):
        self.counts["apn.filter.calls"] += 1
        self.counts["apn.filter.rejects"] += result is not None

    def _note_batch_rank(self, args, result, dur):
        self.counts["f2.batch_rank.matrices"] += len(args[0])

    # -- reading ------------------------------------------------------------

    def totals(self):
        """name -> [calls, total_s, self_s], summed over parents."""
        out = {}
        for (name, _), (calls, total, own) in self.spans.items():
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += own
        return out

    def self_sum(self):
        return sum(rec[2] for rec in self.spans.values())

    def table(self):
        return [
            {"name": name, "parent": parent, "calls": c, "total_s": t, "self_s": s}
            for (name, parent), (c, t, s) in sorted(self.spans.items(), key=lambda kv: -kv[1][2])
        ]


PER_LAYER = [
    ("field.mul.calls_per_candidate", "count"),
    ("field.ctx.build_s", "s"),
    ("linmap.lut.builds_per_candidate", "count"),
    ("linmap.lut.us_per_build", "us"),
    ("linmap.lut.s", "s"),
    ("apn.filter.s", "s"),
    ("apn.filter.reject_ratio", "rejects/calls"),
    ("apn.lemma1.calls_per_candidate", "count"),
    ("apn.lemma1.us_per_call", "us"),
    ("apn.naive.s", "s"),
    ("vbf.realize.calls_per_candidate", "count"),
    ("f2.solve.calls_per_candidate", "count"),
    ("f2.batch_rank.ns_per_matrix", "ns"),
    ("f2.batch_rank.s", "s"),
    ("equiv.profile.calls_per_hit", "count"),
    ("equiv.gamma3_rank.ms_per_call", "ms"),
    ("equiv.gamma3_rank.s", "s"),
    ("equiv.spectra.s", "s"),
    ("spectral.fwht.s", "s"),
    ("search.classify_candidate.us_per_candidate", "us"),
    ("search.run.self_s", "s"),
    ("search.rng_values.s", "s"),
    ("search.conjecture_batch.self_s", "s"),
    ("search.conjecture_batch.peak_mb", "MB"),
    ("trace.overhead_ratio", "traced/untraced"),
    ("trace.unattributed_s", "s"),
]


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer, rounds, candidates, hits, wall_s, measured):
    """Per-layer metrics of the traced rounds.

    ``.s`` and ``.self_s`` metrics are seconds per round of the job.  The
    filter and lemma-1 times leave out the LUT builds they trigger, which
    ``linmap.lut.*`` counts.  ``measured`` holds the metrics taken outside
    the spans.
    """
    tot = tracer.totals()
    counts = tracer.counts

    def calls(*names):
        return sum(tot.get(n, (0, 0.0, 0.0))[0] for n in names)

    def incl(*names):
        return sum(tot.get(n, (0, 0.0, 0.0))[1] for n in names)

    def own(name):
        return tot.get(name, (0, 0.0, 0.0))[2]

    def without_luts(*names):
        """Inclusive time of names, less the LUT builds they trigger directly."""
        luts = sum(tracer.spans.get((LUT, n), (0, 0.0, 0.0))[1] for n in names)
        return incl(*names) - luts

    spectra_s = sum(
        rec[1]
        for (name, parent), rec in tracer.spans.items()
        if name in SPECTRA and parent not in SPECTRA
    )
    builds = counts["linmap.lut.builds"]
    values = {
        "field.mul.calls_per_candidate": _ratio(counts["field.FieldCtx.mul"], candidates),
        "linmap.lut.builds_per_candidate": _ratio(builds, candidates),
        "linmap.lut.us_per_build": 1e6 * _ratio(counts["linmap.lut.build_s"], builds),
        "linmap.lut.s": incl(LUT) / rounds,
        "apn.filter.s": without_luts(*FILTERS) / rounds,
        "apn.filter.reject_ratio": _ratio(counts["apn.filter.rejects"], counts["apn.filter.calls"]),
        "apn.lemma1.calls_per_candidate": _ratio(calls("apn.is_apn_lemma1"), candidates),
        "apn.lemma1.us_per_call": 1e6
        * _ratio(without_luts("apn.is_apn_lemma1"), calls("apn.is_apn_lemma1")),
        "apn.naive.s": incl("apn.is_apn_naive") / rounds,
        "vbf.realize.calls_per_candidate": _ratio(calls("vbf.Form1.realize", "vbf.realize"), candidates),
        "f2.solve.calls_per_candidate": _ratio(calls("f2.solve"), candidates),
        "f2.batch_rank.ns_per_matrix": 1e9
        * _ratio(incl("f2.batch_rank"), counts["f2.batch_rank.matrices"]),
        "f2.batch_rank.s": incl("f2.batch_rank") / rounds,
        "equiv.profile.calls_per_hit": _ratio(calls("equiv.profile"), hits),
        "equiv.gamma3_rank.ms_per_call": 1e3
        * _ratio(incl("equiv.gamma3_rank"), calls("equiv.gamma3_rank")),
        "equiv.gamma3_rank.s": incl("equiv.gamma3_rank") / rounds,
        "equiv.spectra.s": spectra_s / rounds,
        "spectral.fwht.s": incl("spectral.fwht") / rounds,
        "search.classify_candidate.us_per_candidate": 1e6
        * _ratio(incl("search.classify_candidate"), candidates),
        "search.run.self_s": own("search.run") / rounds,
        "search.rng_values.s": incl("search.rng_values") / rounds,
        "search.conjecture_batch.self_s": own("search.conjecture_batch") / rounds,
        "trace.unattributed_s": (wall_s - tracer.self_sum()) / rounds,
    }
    values.update(measured)
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in PER_LAYER}


def inclusive_shares(tracer, wall_s):
    """Share of the traced wall time inside each span name, outermost first."""
    tot = tracer.totals()
    ranked = sorted(tot.items(), key=lambda kv: -kv[1][1])[:TOP]
    return {name: rec[1] / wall_s for name, rec in ranked}
