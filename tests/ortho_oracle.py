"""The ortho-derivative by one f2.nullspace call per direction: the test
oracle for equiv's batched kernel.

For a quadratic F with F(0) = 0, pi(a) spans the solutions c of
Tr(c phi(a, e_j)) = 0 for every j, found by a reduced row basis of the
trace masks of the phi(a, e_j), one direction a at a time.
"""

import numpy as np

from apn_forge import f2
from apn_forge.errors import NotQuadraticApn
from apn_forge.vbf import deriv_basis_table


def ortho_derivative(F):
    """The ortho-derivative LUT of F, or NotQuadraticApn at the first a != 0
    whose derivative image is not a hyperplane."""
    ctx = F.ctx
    masks = ctx.trace_masks()[deriv_basis_table(F)]
    out = np.zeros(ctx.order, dtype=np.int64)
    for a in range(1, ctx.order):
        ns = f2.nullspace([int(m) for m in masks[a]], ctx.n)
        if len(ns) != 1:
            raise NotQuadraticApn(f"derivative image at a={a} is not a hyperplane")
        out[a] = ns[0]
    return out
