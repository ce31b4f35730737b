"""Bit-packed linear algebra over F2.

Rows are ints, bit j = column j.  A row is read as one linear equation
``parity(row & x) = rhs`` over the unknown bit-vector x.  These routines
back kernel/rank computations everywhere speed matters; batch variants
operate on numpy arrays of packed rows.
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


def solve(rows, rhs_bits, ncols):
    """Solve the system {parity(row_i & x) == rhs_i}.

    rhs_bits packs the right-hand sides, bit i for row i.  Returns
    (particular_solution, kernel_basis), or None if inconsistent.
    """
    basis = {}
    for i, row in enumerate(rows):
        r, b = int(row), (rhs_bits >> i) & 1
        while r:
            p = r.bit_length() - 1
            if p not in basis:
                break
            br, bb = basis[p]
            r ^= br
            b ^= bb
        if not r:
            if b:
                return None
            continue
        p = r.bit_length() - 1
        for q in list(basis):
            if (r >> q) & 1:
                br, bb = basis[q]
                r ^= br
                b ^= bb
        for q in basis:
            br, bb = basis[q]
            if (br >> p) & 1:
                basis[q] = (br ^ r, bb ^ b)
        basis[p] = (r, b)
    x = 0
    for p, (_, b) in basis.items():
        if b:
            x |= 1 << p
    kernel = nullspace([r for r, _ in basis.values()], ncols)
    return x, kernel


def span(basis):
    """All 2^len(basis) combinations of a basis, ascending."""
    out = [0]
    for b in basis:
        out += [v ^ b for v in out]
    return sorted(out)


def transpose(cols, nrows):
    """Packed rows of the bit matrix whose column j is the packed value cols[j]."""
    return [sum(((c >> i) & 1) << j for j, c in enumerate(cols)) for i in range(nrows)]


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
