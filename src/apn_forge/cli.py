"""Command-line front end.

Subcommands: test (APN verdict, exit code 0=APN 1=not 2=error), spectral
(bent/derivative-sum profile), search (family scans), reproduce (canned
result pipelines).  Outputs are stable: text or JSON via --format.
"""

import argparse
import json
import sys
import time

from . import apn, catalog, search, spectral
from .errors import ApnForgeError, OddDimension, ParseError
from .expr import parse_univariate
from .field import parse_field_spec
from .linmap import LinearizedPoly
from .vbf import Form1, load_lut


def _add_function_args(p):
    p.add_argument("-f", "--field", help="field spec, e.g. n=6 or n=6,mod=0x5B")
    p.add_argument("-u", "--univariate", help="expression, e.g. 'x^3+Tr(x^9)'")
    p.add_argument("--lut", help="path to a LUT file (one hex element per line)")
    p.add_argument("--form1", help="L1;L2 coefficient lists, hex comma-separated")
    p.add_argument("--builtin", help="named function: dillon6, gold3@n=6, tr9@a=1,n=7, t3:<n>:<i>")


def _resolve_function(args):
    """Returns (ctx, VBF, Form1 | None) from exactly one function source."""
    sources = {"-u": args.univariate, "--lut": args.lut, "--form1": args.form1, "--builtin": args.builtin}
    given = [flag for flag, value in sources.items() if value]
    if len(given) != 1:
        raise ApnForgeError(f"give exactly one of {', '.join(sources)}, not {' and '.join(given) or 'none'}")
    if args.builtin:
        ctx, F = catalog.builtin(args.builtin)
        return ctx, F, None
    if not args.field:
        raise ApnForgeError("missing -f/--field")
    ctx = parse_field_spec(args.field)
    if args.univariate:
        return ctx, parse_univariate(ctx, args.univariate), None
    if args.lut:
        return ctx, load_lut(ctx, args.lut), None
    if args.form1:
        l1_text, sep, l2_text = args.form1.partition(";")
        if not sep:
            raise ParseError(f"--form1 {args.form1!r} is not L1;L2")
        form = Form1(
            LinearizedPoly.from_text(ctx, l1_text),
            LinearizedPoly.from_text(ctx, l2_text),
        )
        return ctx, form.realize(), form


def _emit(payload, fmt, text_renderer=None):
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text_renderer(payload) if text_renderer else payload)


def cmd_test(args):
    ctx, F, form = _resolve_function(args)
    t0 = time.time()
    if form is not None:
        verdict = apn.is_apn_quadratic(form)
    elif F.algebraic_degree() <= 2:
        verdict = apn.is_apn_quadratic(F)
    else:
        verdict = apn.is_apn_naive(F)
    payload = verdict.as_dict()
    payload["micros"] = int((time.time() - t0) * 1e6)
    payload["n"] = ctx.n

    def render(p):
        lines = [f"n={p['n']} APN={p['is_apn']} method={p['method']} ({p['micros']} us)"]
        if p["witness"]:
            w = p["witness"]
            lines.append(f"witness: a={w['a']:#x} b={w['b']:#x} solutions={[hex(x) for x in w['xs']]}")
        return "\n".join(lines)

    _emit(payload, args.format, render)
    return 0 if verdict.is_apn else 1


def cmd_spectral(args):
    ctx, F, form = _resolve_function(args)
    if args.bent and ctx.n % 2:
        raise OddDimension("bent components are defined for even n only")
    payload = {"n": ctx.n}
    is_apn, sums = spectral.apn_sum_check(F)
    payload["apn"] = is_apn
    if args.gamma:  # quadratic F only; bent_components takes any degree
        prof = spectral.spectral_profile(F)
        payload["gamma"] = {str(k): v for k, v in sorted(prof.gamma.items())}
    if (args.bent or args.gamma) and ctx.n % 2 == 0:
        payload["bent_count"] = prof.bent_count if args.gamma else spectral.bent_components(F)
    if args.sums:
        payload["sums"] = {str(a): s for a, s in sorted(sums.items())}
    if args.component is not None:
        try:
            lam = int(args.component, 0)
        except ValueError:
            lam = -1
        if not 0 <= lam < ctx.order:
            raise ParseError(f"--component {args.component!r} is not an element of GF(2^{ctx.n})")
        w = spectral.wht(F.component(lam), ctx)
        payload["spectrum"] = [int(v) for v in w.values]

    if args.format == "csv":
        lines = ["u,value"]
        if "spectrum" in payload:
            lines += [f"{u},{v}" for u, v in enumerate(payload["spectrum"])]
        elif "sums" in payload:
            lines = ["a,sum"] + [f"{a},{s}" for a, s in payload["sums"].items()]
        print("\n".join(lines))
        return 0

    def render(p):
        lines = [f"n={p['n']} apn={p['apn']}"]
        if "bent_count" in p:
            lines.append(f"bent components: {p['bent_count']}")
        if "gamma" in p:
            lines.append("dim V_lambda -> count: " + ", ".join(f"{k}:{v}" for k, v in p["gamma"].items()))
        if "sums" in p:
            lines.append("per-direction derivative sums:")
            for a, s in p["sums"].items():
                lines.append(f"  a={int(a):#x}: {s}")
        if "spectrum" in p:
            lines.append("u,value")
            for u, v in enumerate(p["spectrum"]):
                lines.append(f"{u},{v}")
        return "\n".join(lines)

    _emit(payload, args.format, render)
    return 0


def _at_least_one(args, *names):
    """Reject a count option given below 1; None means it was not given."""
    for name in names:
        value = getattr(args, name)
        if value is not None and value < 1:
            raise ApnForgeError(f"--{name} must be at least 1, got {value}")


def cmd_search(args):
    _at_least_one(args, "workers")
    if args.job:
        with open(args.job) as fh:
            job = search.SearchJob.from_json(fh.read())
    else:
        if not args.n:
            raise ApnForgeError("--n (or --job) is required")
        field = f"n={args.n}" + (f",mod={args.mod}" if args.mod else "")
        job = search.SearchJob(
            field=field,
            shape=args.shape.replace("-", "_").replace("x9_plus_l", "x9_plus_L"),
            sample_count=args.samples,
            seed=args.seed,
            cursor=args.cursor,
            record=args.record,
            use_parity=not args.no_filters,
            use_nonzero=not args.no_filters,
            use_beta=not args.no_filters,
        )
    summary = search.run(job, out_path=args.out, workers=args.workers)
    _emit(summary.as_dict(), args.format, lambda p: summary.text())
    return 0


def cmd_reproduce(args):
    _at_least_one(args, "samples", "workers")
    target = args.target.replace("-", "_")
    opts = {}
    if target == "dims_scan":
        opts["max_n"] = args.max_n
    elif target == "table3":
        if args.n is not None:
            opts["ns"] = [args.n]
        if args.samples is not None:
            opts["n9_samples"] = args.samples
        opts["seed"] = args.seed
        opts["workers"] = args.workers
    elif target == "conjecture":
        if args.samples is not None:
            opts["sample_counts"] = {6: args.samples, 8: args.samples}
        opts["seed"] = args.seed
        if args.out:
            opts["artifact_dir"] = args.out
    report = search.reproduce(target, **opts)
    _emit(report, args.format, search.render_report)
    return 0 if report["ok"] else 1


def build_parser():
    ap = argparse.ArgumentParser(prog="apn", description="APN function toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("test", help="APN verdict for one function")
    _add_function_args(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("spectral", help="bent components / derivative sums")
    _add_function_args(p)
    p.add_argument("--bent", action="store_true", help="count bent components")
    p.add_argument("--gamma", action="store_true", help="dim V_lambda histogram")
    p.add_argument("--sums", action="store_true", help="per-direction derivative sums")
    p.add_argument("--component", help="lambda: print the Walsh spectrum CSV of f_lambda")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("search", help="run a family search job")
    p.add_argument("--job", help="path to a JSON job file")
    p.add_argument("--shape", default="x9-plus-L-binary",
                   choices=("x9-plus-L-binary", "x9-plus-L-full", "form1-binary", "form1-random"))
    p.add_argument("--n", type=int)
    p.add_argument("--mod", help="hex modulus override, e.g. 0x5B")
    p.add_argument("--samples", type=int, help="random sample count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cursor", type=int, default=0, help="resume from candidate index")
    p.add_argument("--record", choices=("hits", "all"), default="hits")
    p.add_argument("--no-filters", action="store_true", help="disable quick-reject filters")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", help="record file path (sorted JSON lines)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("reproduce", help="canned reproduction pipelines")
    p.add_argument("target", choices=("dims-scan", "table3", "dillon", "conjecture", "ep08"))
    p.add_argument("--n", type=int, help="restrict table3 to one dimension")
    p.add_argument("--max-n", type=int, default=16, dest="max_n")
    p.add_argument("--samples", type=int, help="sample count override")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", help="artifact directory (conjecture counterexamples)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_reproduce)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ApnForgeError, OSError) as e:  # OSError: a path that is missing, a directory or unreadable
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
