"""Bit-packed linear algebra over F2.

Rows are ints, bit j = column j.  A row is read as one linear equation
``parity(row & x) = rhs`` over the unknown bit-vector x.  The scalar
routines give ranks, reduced bases and kernels; the batch variants take
numpy arrays of packed rows, one system per entry, and answer ranks and
solvability without building a solution.
"""

import numpy as np


def _semi_echelon(rows):
    """Row basis as {pivot_bit: row}, each row's leading bit its pivot."""
    basis = {}
    for r in rows:
        r = int(r)
        while r:
            p = r.bit_length() - 1
            b = basis.get(p)
            if b is None:
                basis[p] = r
                break
            r ^= b
    return basis


def reduce_rows(rows):
    """Fully reduced row basis as {pivot_bit: row}; its size is the rank.

    Every basis row has zeros at all other pivot positions, so free-variable
    reads off the basis are direct.
    """
    basis = _semi_echelon(rows)
    pivots = sorted(basis)
    for i, p in enumerate(pivots):
        for q in pivots[:i]:  # rows with lower pivots are already reduced
            if (basis[p] >> q) & 1:
                basis[p] ^= basis[q]
    return basis


def rank(rows):
    """Rank of packed rows: the semi-echelon basis, without back-substitution."""
    return len(_semi_echelon(rows))


def nullspace(rows, ncols):
    """Basis of {x : parity(row & x) == 0 for every row}."""
    basis = reduce_rows(rows)
    out = []
    for f in range(ncols):
        if f in basis:
            continue
        v = 1 << f
        for p, r in basis.items():
            if (r >> f) & 1:
                v |= 1 << p
        out.append(v)
    return out


def span(basis):
    """All 2^len(basis) combinations of a basis, ascending."""
    out = [0]
    for b in basis:
        out += [v ^ b for v in out]
    return sorted(out)


def transpose(cols, nrows):
    """Packed rows of the bit matrix whose column j is the packed value cols[..., j].

    Batched over any leading axes of cols; returns an int64 array of shape
    cols.shape[:-1] + (nrows,).
    """
    c = np.asarray(cols, dtype=np.int64)
    bits = (c[..., None, :] >> np.arange(nrows)[:, None]) & 1
    return (bits << np.arange(c.shape[-1])).sum(axis=-1)


def batch_rank(mat, ncols):
    """Ranks of a batch of bit matrices.

    mat has shape (B, nrows); each entry is a packed row of ncols bits.
    Returns an int64 array of B ranks.  A reduced row's leading bit is read
    off its float exponent, which is exact for ncols <= 53.
    """
    dt = np.min_scalar_type((1 << ncols) - 1).type
    m = np.asarray(mat).astype(dt)
    B, nrows = m.shape
    basis = np.zeros((ncols + 1, B), dtype=dt)  # row p is led by bit p; zero rows land in row ncols
    ranks = np.zeros(B, dtype=np.int64)
    cols = np.arange(B)
    for r in range(nrows):
        cur = m[:, r].copy()
        for p in range(ncols - 1, -1, -1):
            cur ^= basis[p] * ((cur >> dt(p)) & dt(1))
        lead = np.frexp(cur.astype(np.float64))[1] - 1
        basis[lead, cols] = cur
        ranks += cur != 0
    return ranks


def batch_solvable(rows, rhs, ncols):
    """Per system, whether {parity(row_i & x) == rhs_i} has a solution x.

    rows has shape (B, nrows) of packed ncols-bit rows; rhs has shape (B,),
    bit i the right-hand side of row i.  A system is solvable iff appending
    the right-hand side as column ncols leaves the rank unchanged, so
    ncols + 1 must be <= 53.
    """
    rows = np.asarray(rows, dtype=np.int64)
    rhs = np.asarray(rhs, dtype=np.int64)[:, None]
    aug = rows | (((rhs >> np.arange(rows.shape[1])) & 1) << ncols)
    return batch_rank(aug, ncols + 1) == batch_rank(rows, ncols)
