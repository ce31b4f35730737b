"""A fixed reference computation that gauges how fast the machine runs right now.

The benchmark's machine is shared (2 vCPUs of a host that runs other
machines too).  Its speed changes in phases that last minutes, by a factor
of two and more, and a run cannot outlast a phase.  Two measures make the
timings of the program repeat across phases:

- The program's work is timed in CPU seconds of the thread that runs it,
  which leaves out the time the host gives to other machines.
- That CPU time is reported at the reference speed: multiplied by
  ``REF_S / median(kernel times)``, where the kernel times are CPU seconds
  of this kernel measured beside the program's work, in the same process.
  This cancels what slows every instruction, such as contention on the
  host.

The kernel is the benchmark's own code and does not change between two
commits, so a change to the program moves the scaled figures exactly as it
moves the raw ones.  It mixes the two kinds of work apn_forge does: scalar
products in GF(2^13) by log and antilog tables, one method call and two
numpy scalar lookups each (as ``FieldCtx.mul``), and gathers and XORs over
value tables in numpy (as the LUT builds and scans).
"""

import time

import numpy as np

# Conway polynomial of degree 13 over GF(2); bit j is the coefficient of x^j.
MODULUS = 0x201B
N = 13
ORDER = 1 << N
# A fixed scale: about the kernel's CPU time when the reference machine
# (2 vCPUs of an Intel Xeon at 2.1 GHz, Python 3.11, numpy 2.4) runs at full
# speed.  In its slower phase the kernel takes 0.12-0.25 s.
REF_S = 0.09


class _LogField:
    """GF(2^13) with products by log and antilog tables."""

    def __init__(self):
        self.log = np.zeros(ORDER, dtype=np.int64)
        self.antilog = np.zeros(ORDER, dtype=np.int64)
        x = 1
        for i in range(ORDER - 1):
            self.antilog[i] = x
            self.log[x] = i
            x <<= 1
            if x & ORDER:
                x ^= MODULUS

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return int(self.antilog[(int(self.log[a]) + int(self.log[b])) % (ORDER - 1)])


_FIELD = _LogField()


def _field_products(count):
    mul, acc, t = _FIELD.mul, 0, 3
    for a in range(1, count + 1):
        t = mul(t, (a & (ORDER - 1)) or 1)
        acc ^= t
    return acc


def _table_work(rounds):
    tables = (np.arange(16 * ORDER, dtype=np.int32).reshape(16, ORDER) * 0x9E5) & (ORDER - 1)
    perm = (np.arange(ORDER) * 1237) & (ORDER - 1)  # an odd multiplier permutes
    for _ in range(rounds):
        tables = np.take(tables, perm, axis=1) ^ tables[:, ::-1]
        tables ^= np.bitwise_xor.reduce(tables, axis=0)
    return int(tables.sum())


def seconds():
    """CPU seconds of this thread in one pass of the kernel."""
    t0 = time.thread_time()
    _field_products(100000)
    _table_work(270)
    return time.thread_time() - t0
