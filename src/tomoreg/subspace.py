"""Low-dimensional affine displacement model built by PCA.

A displacement field is modelled as u = u_mean + sum_i alpha_i * e_i where
the e_i are orthonormal principal directions of a set of training fields.
The decomposition is an economy SVD of the tall mean-centered matrix, one
flattened field per column, whose left singular vectors are the e_i; no
Gram matrix is formed.  Singular values are kept untouched so the
discarded-energy identity

    sum_k ||u_k - reconstruct(project(u_k))||^2 = sum_{i > N_e} sigma_i^2

holds exactly over the training set.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import linalg

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


def build_subspace(fields: list, variance_fraction: float) -> DeformationSubspace:
    """PCA of displacement fields sharing one grid.

    The fields are stacked as the rows of one float64 matrix and centred in
    place; its transpose, (3 * n_voxels) x n_fields and Fortran-ordered, is
    factored by LAPACK without a copy and overwritten.  Its left singular
    vectors are the basis rows.

    Keeps the smallest basis count whose cumulative squared-singular-value
    fraction reaches ``variance_fraction`` (the vector that crosses the
    threshold is included); singular values at or below ``_RANK_RTOL``
    times the largest are rank noise and always dropped.
    """
    variance_fraction = _real(variance_fraction, "variance_fraction", "(0, 1]")
    if len(fields) == 0:
        raise ValueError("at least one displacement field is required")
    grid = fields[0].grid
    for f in fields[1:]:
        if f.grid != grid:
            raise ValueError("all displacement fields must share one grid")

    X = np.empty((len(fields), grid.n_voxels * 3))
    for row, f in zip(X, fields):
        row[:] = f.data.reshape(-1)
    mean = X.mean(axis=0)
    X -= mean

    # economy SVD of the tall X.T, whose columns are the centred fields;
    # columns of U are candidate basis vectors
    U, s, _ = linalg.svd(X.T, full_matrices=False, overwrite_a=True,
                         lapack_driver="gesdd")
    del X

    # s descends, so the kept columns are the leading ones
    s = s[s > (_RANK_RTOL * s[0] if s.size and s[0] > 0.0 else 0.0)]

    if s.size == 0:
        n_keep = 0
    else:
        energy = np.cumsum(s ** 2) / np.sum(s ** 2)
        n_keep = int(np.searchsorted(energy, variance_fraction - 1e-12) + 1)
        n_keep = min(n_keep, s.size)

    return DeformationSubspace(
        dims=grid.dims, spacing=grid.spacing, origin=grid.origin,
        mean=mean.reshape(grid.dims + (3,)),
        basis=U[:, :n_keep].T,
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
