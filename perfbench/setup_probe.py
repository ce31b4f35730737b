"""Time a workload's set-up in a fresh interpreter and print it in CPU seconds.

    python3 perfbench/setup_probe.py <workload> <seed>

Set-up is what a job pays before its first candidate: importing apn_forge,
building the field contexts with their power and trace tables, and building
the job.  It is timed in CPU seconds of the main thread, which leaves out the
time the host gives to other machines.  Loading the benchmark's own modules
is not counted.  The probe then times the calibration kernel in the same
interpreter and prints both: the set-up seconds first, the kernel seconds
second.
"""

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(name, seed):
    sys.path.insert(0, str(SRC))
    t0 = time.thread_time()
    import apn_forge

    imported = time.thread_time() - t0
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, None)
    t0 = time.thread_time()
    workload.setup(apn_forge)
    setup = imported + time.thread_time() - t0
    import calibrate

    print(repr(setup), repr(calibrate.seconds()))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
