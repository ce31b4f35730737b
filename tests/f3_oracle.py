"""GF(3) rank by bit-sliced elimination: the test oracle for equiv.gamma3_rank.

`translate_rank` builds the explicit |D| x 4^n graph-translate matrix that
gamma3_rank's docstring defines and eliminates it, with no use of the
function's structure.
"""

import numpy as np

from apn_forge import equiv


def _f3_add(P, N, rows, w, wp, wn):
    """Add the GF(3) vector with planes (wp, wn) to the given rows of (P, N), from word w on.

    Entries are bit-sliced: P marks the entries equal to 1 and N those equal
    to 2.  With x = (xp, xn), x + 1 = (~(xp | xn), xp) and x + 2 = (xn, ~(xp | xn)),
    and xp | xn = xp ^ xn, so over every column at once
    sum_p = (xp & ~wn) ^ (xn & (wp | wn)) ^ wp and
    sum_n = (xp & (wp | wn)) ^ (xn & ~wp) ^ wn.
    """
    nonzero = wp | wn
    xp, xn = P[rows, w:], N[rows, w:]
    sp = xp & ~wn
    t = xn & nonzero
    sp ^= t
    sp ^= wp
    xp &= nonzero
    xn &= ~wp
    xn ^= xp
    xn ^= wn
    P[rows, w:] = sp
    N[rows, w:] = xn


def _f3_eliminate(P, N):
    """GF(3) rank of the bit-sliced matrix with planes (P, N), by forward elimination in place.

    Columns are taken in order, one word of 64 at a time: the lowest set bit
    of the OR over the live rows is the next pivot column, so empty columns
    cost nothing.  A row whose entry there equals the pivot's subtracts the
    pivot row, any other nonzero row adds it; only the words from the
    pivot's word on change.
    """
    rows, words = P.shape
    r = 0
    for w in range(words):
        while r < rows:
            cn = N[r:, w]
            live = P[r:, w] | cn
            occ = int(np.bitwise_or.reduce(live))
            if occ == 0:
                break
            bit = np.uint64(occ & -occ)
            hit = np.flatnonzero(live & bit)
            twos = (cn[hit] & bit) != 0
            piv = r + hit[0]
            if piv != r:
                P[[r, piv], w:] = P[[piv, r], w:]
                N[[r, piv], w:] = N[[piv, r], w:]
            if hit.size > 1:
                same = twos[1:] == twos[0]
                below = r + hit[1:]
                pp, pn = P[r, w:], N[r, w:]
                k = np.count_nonzero(same)
                if k:
                    _f3_add(P, N, below[same], w, pn, pp)
                if k < same.size:
                    _f3_add(P, N, below[~same], w, pp, pn)
            r += 1
    return r


def f3_rank(A):
    """Rank over GF(3) of a dense integer matrix, by bit-sliced forward elimination.

    Column j of each row goes to bit j % 64 of word j // 64 of its planes.
    """
    A = np.asarray(A) % 3
    rows, cols = A.shape
    planes = np.zeros((2, rows, 8 * -(-cols // 64)), dtype=np.uint8)
    for plane, value in zip(planes, (1, 2)):
        plane[:, : -(-cols // 8)] = np.packbits(A == value, axis=1, bitorder="little")
    P, N = planes.view("<u8")
    return _f3_eliminate(P, N)


def translate_rank(F):
    """GF(3) rank of M[d][y] = [d + y in graph of F], d in the difference set, y in the plane."""
    n = F.ctx.n
    graph = (np.arange(F.ctx.order) << n) | F.lut
    D = set(equiv._difference_set(F).tolist())
    width = 8 * -(-(1 << (2 * n)) // 64)
    rows = b"".join(row.to_bytes(width, "little") for x, row in equiv._incidence_rows(graph, 2 * n) if x in D)
    P = np.frombuffer(rows, dtype="<u8").reshape(-1, width // 8).copy()
    return _f3_eliminate(P, np.zeros_like(P))
