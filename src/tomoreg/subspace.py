"""Low-dimensional affine displacement model built by PCA.

A displacement field is modelled as u = u_mean + sum_i alpha_i * e_i where
the e_i are orthonormal principal directions of a set of training fields.
The decomposition runs directly on the raw mean-centered sample matrix
(samples as rows, flattened fields as columns); singular values are kept
untouched so the discarded-energy identity

    sum_k ||u_k - reconstruct(project(u_k))||^2 = sum_{i > N_e} sigma_i^2

holds exactly over the training set.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .grids import DisplacementField, GridSpec

# singular values at or below this fraction of the largest are rank noise
_RANK_RTOL = 1e-10


@dataclass
class DeformationSubspace:
    """Mean field plus orthonormal basis fields spanning the model."""

    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    origin: tuple[float, float, float]
    mean: np.ndarray              # (W, H, D, 3)
    basis: np.ndarray             # (N_e, W*H*D*3), rows orthonormal
    singular_values: np.ndarray   # (N_e,) descending
    variance_fraction: float

    def __post_init__(self):
        grid = GridSpec(self.dims, self.spacing, self.origin)
        self.dims, self.spacing, self.origin = grid.dims, grid.spacing, grid.origin
        # contiguous, so reconstruct reads them without a gather and a view
        # into a larger payload does not keep that payload alive
        self.mean = np.ascontiguousarray(self.mean, dtype=np.float64)
        self.basis = np.ascontiguousarray(self.basis, dtype=np.float64).reshape(
            -1, grid.n_voxels * 3)
        self.singular_values = np.asarray(self.singular_values, dtype=np.float64).reshape(-1)
        if self.mean.shape != grid.dims + (3,):
            raise ValueError("mean field shape does not match grid dims")
        if self.singular_values.shape[0] != self.basis.shape[0]:
            raise ValueError("one singular value per basis vector required")
        if np.any(np.diff(self.singular_values) > 0.0):
            raise ValueError("singular values must be non-increasing")

    @property
    def grid(self) -> GridSpec:
        return GridSpec(self.dims, self.spacing, self.origin)

    @property
    def n_components(self) -> int:
        return int(self.basis.shape[0])

    def mean_field(self) -> DisplacementField:
        return DisplacementField(self.dims, self.spacing, self.origin, self.mean.copy())


def build_subspace(fields: list, variance_fraction: float) -> DeformationSubspace:
    """PCA of displacement fields sharing one grid.

    Keeps the smallest basis count whose cumulative squared-singular-value
    fraction reaches ``variance_fraction`` (the vector that crosses the
    threshold is included); exactly-zero singular values are always dropped.
    """
    if not (0.0 < variance_fraction <= 1.0):
        raise ValueError("variance_fraction must lie in (0, 1]")
    if len(fields) == 0:
        raise ValueError("at least one displacement field is required")
    grid = fields[0].grid
    for f in fields[1:]:
        if f.grid != grid:
            raise ValueError("all displacement fields must share one grid")

    X = np.stack([f.data.astype(np.float64, copy=False).reshape(-1) for f in fields])
    mean = X.mean(axis=0)
    Xc = X - mean[None, :]

    # economy SVD; rows of Vt are candidate basis vectors
    _, s, Vt = linalg.svd(Xc, full_matrices=False, lapack_driver="gesdd")

    nonzero = s > (_RANK_RTOL * s[0] if s.size and s[0] > 0.0 else 0.0)
    s = s[nonzero]
    Vt = Vt[nonzero]

    if s.size == 0:
        n_keep = 0
    else:
        energy = np.cumsum(s ** 2) / np.sum(s ** 2)
        n_keep = int(np.searchsorted(energy, variance_fraction - 1e-12) + 1)
        n_keep = min(n_keep, s.size)

    return DeformationSubspace(
        dims=grid.dims, spacing=grid.spacing, origin=grid.origin,
        mean=mean.reshape(grid.dims + (3,)),
        basis=Vt[:n_keep].copy(),
        singular_values=s[:n_keep].copy(),
        variance_fraction=float(variance_fraction),
    )


def project(sub: DeformationSubspace, u: DisplacementField) -> np.ndarray:
    """Coefficients of the orthogonal projection of u onto the subspace."""
    if u.grid != sub.grid:
        raise ValueError("field grid does not match subspace grid")
    resid = u.data.astype(np.float64, copy=False).reshape(-1) - sub.mean.reshape(-1)
    return sub.basis @ resid


def reconstruct(sub: DeformationSubspace, alpha: np.ndarray) -> DisplacementField:
    """Field u_mean + sum_i alpha_i e_i for a coefficient vector."""
    alpha = np.asarray(alpha, dtype=np.float64).reshape(-1)
    if alpha.shape[0] != sub.n_components:
        raise ValueError(
            f"alpha has {alpha.shape[0]} entries, subspace has {sub.n_components}")
    flat = sub.mean.reshape(-1).copy()
    if alpha.size:
        flat += sub.basis.T @ alpha
    return DisplacementField(sub.dims, sub.spacing, sub.origin,
                             flat.reshape(sub.dims + (3,)))
