"""Low-dimensional affine displacement model built by PCA.

A displacement field is modelled as u = u_mean + sum_i alpha_i * e_i where
the e_i are orthonormal principal directions of a set of training fields.
The e_i are the left singular vectors of the tall mean-centred matrix, one
flattened field per column, found by Chan's R-SVD with one copy of the
training set: a QR in place, whose Q overwrites the matrix, the SVD of the
n_fields x n_fields factor R, and Q times only the kept columns of R's
left singular vectors.  No Gram matrix is formed.  Singular values are
kept untouched so the discarded-energy identity

    sum_k ||u_k - reconstruct(project(u_k))||^2 = sum_{i > N_e} sigma_i^2

holds exactly over the training set.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import linalg
from scipy.linalg import blas

from .grids import DisplacementField, GridContainer, _array, _real

# singular values at or below this fraction of the largest are rank noise
_RANK_RTOL = 1e-10


def _read_only(values) -> np.ndarray:
    """``values`` as a read-only C-contiguous float64 array.

    Contiguous, so reconstruct reads it without a gather; read-only, so the
    evaluation plan built from it cannot go stale.  An array that is the
    caller's own is copied first, so the caller's stays writeable and a
    view into a larger payload does not keep that payload alive.
    """
    out = np.ascontiguousarray(values, dtype=np.float64)
    if out is values:
        out = out.copy()
    out.flags.writeable = False
    return out


@dataclass
class DeformationSubspace(GridContainer):
    """Mean field plus orthonormal basis fields spanning the model."""

    mean: np.ndarray              # (W, H, D, 3)
    basis: np.ndarray             # (N_e, W*H*D*3), rows orthonormal
    singular_values: np.ndarray   # (N_e,) descending
    variance_fraction: float
    # the subspace objective's evaluation plan (``losses._plan``), built on
    # the first evaluation on this subspace
    _plan: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        super().__post_init__()
        self.mean = _read_only(self.mean)
        self.basis = _read_only(self.basis).reshape(-1, self.grid.n_voxels * 3)
        self.singular_values = _array(self.singular_values, "singular_values",
                                      (self.basis.shape[0],), ">= 0")
        self.variance_fraction = _real(self.variance_fraction, "variance_fraction", "(0, 1]")
        if self.mean.shape != self.dims + (3,):
            raise ValueError("mean field shape does not match grid dims")
        if np.any(np.diff(self.singular_values) > 0.0):
            raise ValueError("singular values must be non-increasing")

    @property
    def n_components(self) -> int:
        return int(self.basis.shape[0])


def _training_matrix(fields) -> tuple:
    """The fields' shared grid and a (len(fields), 3 * n_voxels) float64
    matrix holding one field per row, filled in one pass as they arrive."""
    n_fields = len(fields)
    if n_fields == 0:
        raise ValueError("at least one displacement field is required")
    X = grid = None
    n_read = 0
    for f in fields:
        if n_read == n_fields:
            raise ValueError(f"fields yielded more than its length, {n_fields}")
        if X is None:
            grid = f.grid
            X = np.empty((n_fields, grid.n_voxels * 3))
        elif f.grid != grid:
            raise ValueError("all displacement fields must share one grid")
        X[n_read] = f.data.reshape(-1)
        n_read += 1
    if n_read != n_fields:
        raise ValueError(f"fields yielded {n_read}, fewer than its length, {n_fields}")
    return grid, X


def build_subspace(fields, variance_fraction: float) -> DeformationSubspace:
    """PCA of displacement fields sharing one grid.

    ``fields`` is any sized iterable, read in one pass: each field is
    written into its row of one float64 matrix as it arrives, so the caller
    need not hold them all.  The matrix is centred in place, and its
    transpose, (3 * n_voxels) x n_fields and Fortran-ordered, is factored
    by QR in place: Q overwrites the training matrix, which is the only
    copy of it.  The SVD of the small factor R gives the singular values
    and R's left singular vectors; only the kept columns of Q times those
    are formed, and they are the basis rows.

    Keeps the smallest basis count whose cumulative squared-singular-value
    fraction reaches ``variance_fraction`` (the vector that crosses the
    threshold is included); singular values at or below ``_RANK_RTOL``
    times the largest are rank noise and always dropped.
    """
    variance_fraction = _real(variance_fraction, "variance_fraction", "(0, 1]")
    grid, X = _training_matrix(fields)
    mean = X.mean(axis=0)
    X -= mean

    # X.T = Q R with Q in X's memory, then R = U_R diag(s) V^T: the columns
    # of Q U_R are the left singular vectors of the centred fields
    Q, R = linalg.qr(X.T, overwrite_a=True, mode="economic")
    del X
    U_R, s, _ = linalg.svd(R, full_matrices=False, lapack_driver="gesdd")

    # s descends, so the kept columns are the leading ones
    s = s[s > (_RANK_RTOL * s[0] if s.size and s[0] > 0.0 else 0.0)]

    if s.size == 0:
        n_keep = 0
    else:
        energy = np.cumsum(s ** 2) / np.sum(s ** 2)
        n_keep = int(np.searchsorted(energy, variance_fraction - 1e-12) + 1)
        n_keep = min(n_keep, s.size)

    # BLAS gemm for any column count, as LAPACK forms U; numpy's matmul
    # takes gemv for one column, which differs in the last bit
    if n_keep:
        basis = blas.dgemm(1.0, Q, U_R[:, :n_keep]).T
    else:
        basis = np.empty((0, grid.n_voxels * 3))
    del Q

    return DeformationSubspace(
        dims=grid.dims, spacing=grid.spacing, origin=grid.origin,
        mean=mean.reshape(grid.dims + (3,)),
        basis=basis,
        singular_values=s[:n_keep],
        variance_fraction=variance_fraction,
    )


def project(sub: DeformationSubspace, u: DisplacementField) -> np.ndarray:
    """Coefficients of the orthogonal projection of u onto the subspace."""
    if u.grid != sub.grid:
        raise ValueError("field grid does not match subspace grid")
    resid = u.data.astype(np.float64, copy=False).reshape(-1) - sub.mean.reshape(-1)
    return sub.basis @ resid


def _coefficients(sub: DeformationSubspace, alpha) -> np.ndarray:
    """``alpha`` as a flat float64 vector of one entry per component."""
    alpha = np.asarray(alpha, dtype=np.float64).reshape(-1)
    if alpha.shape[0] != sub.n_components:
        raise ValueError(
            f"alpha has {alpha.shape[0]} entries, subspace has {sub.n_components}")
    return alpha


def reconstruct(sub: DeformationSubspace, alpha: np.ndarray) -> DisplacementField:
    """Field u_mean + sum_i alpha_i e_i for a coefficient vector."""
    alpha = _coefficients(sub, alpha)
    flat = sub.mean.reshape(-1).copy()
    if alpha.size:
        flat += sub.basis.T @ alpha
    return DisplacementField(sub.dims, sub.spacing, sub.origin,
                             flat.reshape(sub.dims + (3,)))
