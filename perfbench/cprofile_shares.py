"""Inclusive cProfile shares of apn_forge functions over one round of a workload.

    python3 perfbench/cprofile_shares.py --workload scan-x9-binary-n13 [--seed 1]

cProfile charges its own cost to every Python call, so these shares are a
cross-check of the traced run's ``inclusive_shares``, not a measurement.
"""

import argparse
import cProfile
import pstats
import sys
import time
from pathlib import Path

from tracing import TOP
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(HERE.parent / "src"))
    import apn_forge

    outdir = HERE / "out" / args.workload
    outdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, outdir)
    workload.setup(apn_forge)
    prof = cProfile.Profile()
    t0 = time.perf_counter()
    prof.runcall(workload.round)
    wall = time.perf_counter() - t0
    rows = [
        (cum, f"{Path(path).stem}.{func}")
        for (path, _, func), (_, _, _, cum, _) in pstats.Stats(prof).stats.items()
        if "apn_forge" in Path(path).parts
    ]
    print(f"{args.workload}: one round under cProfile, {wall:.2f} s")
    for cum, name in sorted(rows, reverse=True)[:TOP]:
        print(f"{cum / wall:7.1%}  {name}")


if __name__ == "__main__":
    main()
