"""Bit-packed linear algebra over F2.

Rows are ints, bit j = column j.  A row is read as one linear equation
``parity(row & x) = rhs`` over the unknown bit-vector x.  The scalar
routines give ranks, reduced bases and kernels; the batch variants take
numpy arrays of packed rows, one system per entry, and answer ranks,
solvability and the one kernel vector of a system of corank 1; ``parity``
gives the bit parity of each packed word of an array.
"""

import numpy as np

from .errors import PreconditionViolated


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


def expand_linear(basis_values):
    """Value tables (2^m entries, m = basis_values.shape[-1]) of the F2-linear maps e_j -> basis_values[..., j]."""
    m = basis_values.shape[-1]
    out = np.zeros(basis_values.shape[:-1] + (1 << m,), dtype=basis_values.dtype)
    for j in range(m):
        out[..., 1 << j : 2 << j] = out[..., : 1 << j] ^ basis_values[..., j, None]
    return out


def _pivots(mat, ncols):
    """Yield one pivot row per matrix per pass, 0 once a matrix is reduced.

    mat has shape (B, nrows); each entry is a packed row of ncols <= 64 bits.
    Each pass takes every matrix's largest row as its pivot: XOR with it makes
    exactly the rows that share its leading bit smaller, so min(row, row ^ top)
    clears that bit from them, leaves the other rows and zeroes the pivot.  So
    a matrix's pivots have strictly falling leading bits, and there are at most
    min(nrows, ncols) passes.
    """
    if ncols > 64:
        raise PreconditionViolated(f"batch_rank packs rows in 64 bits, got {ncols} columns")
    m = np.asarray(mat).T.astype(np.min_scalar_type((1 << ncols) - 1), order="C")
    for k in range(min(len(m), ncols)):
        if k:  # no update after the last pivot
            np.minimum(m, m ^ top, out=m)
        top = m.max(axis=0)
        yield top


def batch_rank(mat, ncols):
    """Ranks of a batch of bit matrices (see _pivots): an int64 array of B ranks."""
    ranks = np.zeros(len(mat), dtype=np.int64)
    for top in _pivots(mat, ncols):
        ranks += top != 0
    return ranks


def batch_kernel_vector(mat, ncols):
    """(x, ranks) for a batch of bit matrices: where a matrix has rank
    ncols - 1, x is the one nonzero solution of {parity(row & x) == 0}; other
    entries of x mean nothing.

    The pivots of _pivots form an echelon basis.  The one column that leads
    no pivot is free: x takes it, then each pivot, lowest leading bit first,
    sets its leading bit to the parity of the rest of the pivot with x.
    Leading bits are read as float exponents, exact for ncols <= 53.
    """
    if ncols > 53:
        raise PreconditionViolated(f"batch_kernel_vector needs ncols <= 53, got {ncols}")
    # a zero first row keeps the shape (passes, B) when there are no passes
    tops = np.array([np.zeros(len(mat))] + list(_pivots(mat, ncols)), dtype=np.int64)
    lead = (np.int64(1) << np.frexp(tops)[1]) >> 1  # 0 for a zero pivot
    x = ((1 << ncols) - 1) ^ np.bitwise_or.reduce(lead, axis=0)
    x &= -x
    for top, bit in zip(tops[::-1], lead[::-1]):
        x |= bit * parity(top & x, ncols)
    return x, np.count_nonzero(tops, axis=0)


def parity(words, nbits):
    """Per entry of an int array of nbits-bit words, the parity of its set
    bits, by XOR-folding halves (numpy >= 1.24 has no bitwise_count)."""
    v = np.array(words)
    for k in reversed(range((nbits - 1).bit_length())):
        v ^= v >> (1 << k)
    return v & 1


def batch_solvable(rows, rhs, ncols):
    """Per system, whether {parity(row_i & x) == rhs_i} has a solution x.

    rows has shape (B, nrows) of packed ncols-bit rows; rhs has shape (B,),
    bit i the right-hand side of row i.  A system is solvable iff appending
    the right-hand side as column ncols leaves the rank unchanged, so
    ncols + 1 must be <= 64.
    """
    if ncols + 1 > 64:
        raise PreconditionViolated(f"batch_solvable needs ncols + 1 <= 64, got ncols = {ncols}")
    rows = np.asarray(rows).astype(np.uint64)
    bits = (np.asarray(rhs, dtype=np.int64)[:, None] >> np.arange(rows.shape[1])) & 1
    aug = rows | (bits.astype(np.uint64) << np.uint64(ncols))
    return batch_rank(aug, ncols + 1) == batch_rank(rows, ncols)
