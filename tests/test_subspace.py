"""Mean/basis construction, projection and reconstruction of field spaces."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy import linalg

from tomoreg import (DeformationSubspace, DisplacementField, GridSpec,
                     build_subspace, project, reconstruct)
from tomoreg.subspace import _RANK_RTOL

GRID = GridSpec((5, 4, 3), (1.5, 2.0, 1.0), (-1.0, 0.0, 2.0))


def rand_field(seed, grid=GRID, scale=1.0):
    rng = np.random.default_rng(seed)
    return DisplacementField(grid.dims, grid.spacing, grid.origin,
                             scale * rng.standard_normal(grid.dims + (3,)))


def rel_l2(a: DisplacementField, b: DisplacementField) -> float:
    num = np.linalg.norm(a.data - b.data)
    return num / np.linalg.norm(b.data)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_single_field_gives_zero_rank():
    f = rand_field(0)
    sub = build_subspace([f], 0.99)
    assert sub.n_components == 0
    assert_allclose(sub.mean.reshape(f.data.shape), f.data)
    back = reconstruct(sub, np.zeros(0))
    assert_allclose(back.data, f.data)


def test_two_fields_give_rank_one_and_exact_reconstruction():
    f1, f2 = rand_field(1), rand_field(2)
    sub = build_subspace([f1, f2], 0.99)
    assert sub.n_components == 1
    for f in (f1, f2):
        assert rel_l2(reconstruct(sub, project(sub, f)), f) < 1e-6


def test_mismatched_grids_are_rejected():
    other = GridSpec((5, 4, 3), (1.5, 2.0, 1.1), (-1.0, 0.0, 2.0))
    with pytest.raises(ValueError):
        build_subspace([rand_field(3), rand_field(4, grid=other)], 0.99)


def test_variance_fraction_must_be_in_range():
    fields = [rand_field(i) for i in range(3)]
    for bad in (0.0, -0.5, 1.01):
        with pytest.raises(ValueError):
            build_subspace(fields, bad)


def test_duplicated_inputs_do_not_inflate_the_rank():
    f1, f2 = rand_field(5), rand_field(6)
    sub = build_subspace([f1, f2, f1, f2, f1], 1.0)
    assert sub.n_components <= 2


def reference_pca(fields, variance_fraction):
    """Mean, kept singular values and basis rows from the samples-as-rows
    factorization: the economy SVD of the centred (n_fields, 3 * n_voxels)
    matrix, whose right singular vectors are the basis, with the same rank
    and variance rules."""
    X = np.stack([f.data.astype(np.float64).reshape(-1) for f in fields])
    mean = X.mean(axis=0)
    _, s, Vt = linalg.svd(X - mean[None, :], full_matrices=False,
                          lapack_driver="gesdd")
    nonzero = s > (_RANK_RTOL * s[0] if s.size and s[0] > 0.0 else 0.0)
    s, Vt = s[nonzero], Vt[nonzero]
    n_keep = 0
    if s.size:
        energy = np.cumsum(s ** 2) / np.sum(s ** 2)
        n_keep = min(int(np.searchsorted(energy, variance_fraction - 1e-12) + 1), s.size)
    return mean, s[:n_keep], Vt[:n_keep]


@st.composite
def field_sets(draw):
    """Training sets on small non-cubic grids: 1-40 fields, some grids with
    fewer field entries (3 * n_voxels, down to 3) than fields, drawn
    distinct, as a few fields repeated in a shuffled order, or as one field
    repeated.  The repeated field holds multiples of 1/8 below 8, so the
    mean of its copies is exact and the centred matrix is exactly zero."""
    dims = tuple(draw(st.integers(1, 5)) for _ in range(3))
    grid = GridSpec(dims, (1.5, 2.0, 1.0), (-1.0, 0.0, 2.0))
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["distinct", "repeated", "identical"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "identical":
        data = [rng.integers(-64, 64, dims + (3,)) / 8.0] * n
    else:
        n_distinct = n if kind == "distinct" else draw(st.integers(1, n))
        distinct = [rng.standard_normal(dims + (3,)) for _ in range(n_distinct)]
        data = [distinct[i % n_distinct] for i in rng.permutation(n)]
    fields = [DisplacementField(grid.dims, grid.spacing, grid.origin, d) for d in data]
    return fields, kind, draw(st.sampled_from([0.5, 0.9, 0.99, 1.0]))


@settings(max_examples=80, deadline=None)
@given(field_sets())
def test_the_tall_factorization_matches_the_samples_as_rows_one(case):
    """``build_subspace`` factors the transpose of the matrix the reference
    factors: same components kept, singular values within 1e-12 of the
    largest, basis rows equal up to sign, the mean bit for bit."""
    fields, kind, variance = case
    sub = build_subspace(fields, variance)
    mean, s, Vt = reference_pca(fields, variance)
    assert sub.n_components == s.size
    if kind == "identical":
        assert sub.n_components == 0
    assert_array_equal(sub.mean.reshape(-1), mean)
    if s.size:
        assert np.max(np.abs(sub.singular_values - s)) <= 1e-12 * s[0]
        sign = np.sign(np.sum(sub.basis * Vt, axis=1))
        assert np.all(sign != 0)
        assert np.max(np.abs(sub.basis - sign[:, None] * Vt)) <= 1e-10


TALL = GridSpec((10, 8, 6), GRID.spacing, GRID.origin)


@pytest.mark.parametrize("n_fields, seed", [(12, 40), (30, 70)])
def test_the_small_factors_svd_gives_gesdds_basis_bit_for_bit(monkeypatch, n_fields, seed):
    """On a tall case every SVD ``build_subspace`` takes is of the
    n_fields x n_fields factor, and for each kept count from 1 to the rank
    the basis rows and singular values are the leading columns of the
    economy gesdd of the centred transpose, bit for bit; keeping none gives
    an empty basis of the grid's width."""
    fields = [rand_field(seed + i, TALL) for i in range(n_fields)]
    X = np.stack([f.data.reshape(-1) for f in fields])
    X -= X.mean(axis=0)
    U, s, _ = linalg.svd(X.T, full_matrices=False, lapack_driver="gesdd")
    rank = int(np.sum(s > _RANK_RTOL * s[0]))
    assert rank == n_fields - 1
    energy = np.cumsum(s[:rank] ** 2) / np.sum(s[:rank] ** 2)

    shapes, svd = [], linalg.svd

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(linalg, "svd", spy)
    for k in range(1, rank + 1):
        sub = build_subspace(fields, energy[k - 1])
        assert sub.n_components == k
        assert_array_equal(sub.basis, U[:, :k].T)
        assert_array_equal(sub.singular_values, s[:k])
    assert set(shapes) == {(n_fields, n_fields)}
    assert build_subspace(fields[:1], 0.9).basis.shape == (0, TALL.n_voxels * 3)


def test_the_build_allocates_one_training_matrix_and_the_kept_basis():
    """Above its input list, ``build_subspace`` allocates the training
    matrix and the kept basis, and at most a quarter of the matrix more:
    no full set of left singular vectors beside the matrix."""
    grid = GridSpec((12, 12, 12), GRID.spacing, GRID.origin)
    rng = np.random.default_rng(8)
    modes = rng.standard_normal((2,) + grid.dims + (3,))
    fields = [DisplacementField(grid.dims, grid.spacing, grid.origin,
                                a * modes[0] + b * modes[1]
                                + 1e-3 * rng.standard_normal(grid.dims + (3,)))
              for a, b in rng.standard_normal((24, 2)) * (3.0, 2.0)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sub = build_subspace(fields, 0.9)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert sub.n_components == 2
    x_bytes = len(fields) * grid.n_voxels * 3 * 8
    assert peak <= x_bytes + sub.basis.nbytes + 0.25 * x_bytes


def test_the_fields_are_read_in_one_pass_of_a_sized_iterable():
    """Any sized iterable is read once, field by field; one whose length
    disagrees with what it yields is an error, not rows left unwritten."""
    fields = [rand_field(i) for i in range(4)]

    class Once:
        def __init__(self, items, length):
            self.items, self.length, self.passes = items, length, 0

        def __len__(self):
            return self.length

        def __iter__(self):
            self.passes += 1
            return iter(self.items)

    once = Once(fields, 4)
    sub = build_subspace(once, 0.99)
    assert once.passes == 1
    ref = build_subspace(fields, 0.99)
    for name in ("mean", "basis", "singular_values"):
        assert_array_equal(getattr(sub, name), getattr(ref, name))
    with pytest.raises(ValueError, match="fewer than its length, 5"):
        build_subspace(Once(fields, 5), 0.99)
    with pytest.raises(ValueError, match="more than its length, 3"):
        build_subspace(Once(fields, 3), 0.99)
    other = GridSpec((5, 4, 3), (1.5, 2.0, 1.1), (-1.0, 0.0, 2.0))
    with pytest.raises(ValueError, match="all displacement fields must share one grid"):
        build_subspace(Once(fields[:2] + [rand_field(9, grid=other)], 3), 0.99)


# ---------------------------------------------------------------------------
# projection / reconstruction
# ---------------------------------------------------------------------------

def test_projecting_the_mean_gives_zeros():
    fields = [rand_field(i) for i in range(6)]
    sub = build_subspace(fields, 1.0)
    mean_field = DisplacementField(GRID.dims, GRID.spacing, GRID.origin,
                                   sub.mean.reshape(GRID.dims + (3,)))
    assert_allclose(project(sub, mean_field), 0.0, atol=1e-9)


def test_projection_reads_coefficients_off_orthonormal_directions():
    fields = [rand_field(i) for i in range(6)]
    sub = build_subspace(fields, 1.0)
    flat = sub.mean.reshape(-1) + 3.0 * sub.basis[0]
    f = DisplacementField(GRID.dims, GRID.spacing, GRID.origin,
                          flat.reshape(GRID.dims + (3,)))
    alpha = project(sub, f)
    want = np.zeros(sub.n_components)
    want[0] = 3.0
    assert_allclose(alpha, want, atol=1e-9)


def test_training_members_round_trip_at_full_variance():
    fields = [rand_field(10 + i) for i in range(7)]
    sub = build_subspace(fields, 1.0)
    for f in fields:
        assert rel_l2(reconstruct(sub, project(sub, f)), f) < 1e-6


def test_reconstruct_at_zero_returns_the_mean():
    fields = [rand_field(20 + i) for i in range(4)]
    sub = build_subspace(fields, 1.0)
    out = reconstruct(sub, np.zeros(sub.n_components))
    assert_allclose(out.data.reshape(-1), sub.mean.reshape(-1))


def test_reconstruction_is_the_least_squares_solution():
    grid = GridSpec((4, 4, 4), (1.0, 1.0, 1.0))
    fields = [rand_field(30 + i, grid=grid) for i in range(5)]
    sub = build_subspace(fields, 1.0)
    u = rand_field(99, grid=grid)

    # normal equations on the affine subspace mean + span(basis)
    B = sub.basis.T  # (3n, N_e)
    rhs = u.data.reshape(-1) - sub.mean.reshape(-1)
    coeff, *_ = np.linalg.lstsq(B, rhs, rcond=None)
    best = sub.mean.reshape(-1) + B @ coeff

    got = reconstruct(sub, project(sub, u)).data.reshape(-1)
    assert_allclose(got, best, atol=1e-9)


def test_alpha_length_is_validated():
    fields = [rand_field(40 + i) for i in range(4)]
    sub = build_subspace(fields, 1.0)
    with pytest.raises(ValueError):
        reconstruct(sub, np.zeros(sub.n_components + 1))


def test_project_rejects_mismatched_grid():
    fields = [rand_field(50 + i) for i in range(4)]
    sub = build_subspace(fields, 1.0)
    other = GridSpec((5, 4, 3), (1.5, 2.0, 1.0), (0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        project(sub, rand_field(60, grid=other))


# ---------------------------------------------------------------------------
# spectral invariants
# ---------------------------------------------------------------------------

def test_basis_is_orthonormal():
    fields = [rand_field(70 + i) for i in range(8)]
    sub = build_subspace(fields, 1.0)
    gram = sub.basis @ sub.basis.T
    assert np.abs(gram - np.eye(sub.n_components)).max() < 1e-8


def test_projection_is_idempotent():
    fields = [rand_field(80 + i) for i in range(6)]
    sub = build_subspace(fields, 1.0)
    alpha = np.linspace(-2.0, 2.0, sub.n_components)
    back = project(sub, reconstruct(sub, alpha))
    assert np.abs(back - alpha).max() < 1e-8


def test_reconstruction_error_never_grows_with_variance_fraction():
    fields = [rand_field(90 + i) for i in range(9)]
    errors = []
    for vf in (0.3, 0.5, 0.7, 0.9, 1.0):
        sub = build_subspace(fields, vf)
        errors.append([rel_l2(reconstruct(sub, project(sub, f)), f)
                       for f in fields])
    errors = np.asarray(errors)
    assert np.all(np.diff(errors, axis=0) <= 1e-12)


def test_singular_values_are_sorted_and_cover_the_fraction():
    fields = [rand_field(100 + i) for i in range(9)]
    sub = build_subspace(fields, 0.7)
    s = sub.singular_values
    assert np.all(np.diff(s) <= 0.0)
    assert np.all(s >= 0.0)
    full = build_subspace(fields, 1.0).singular_values
    covered = np.sum(s ** 2) / np.sum(full ** 2)
    assert covered >= 0.7 - 1e-12
    # ceil semantics: dropping the last kept vector would fall below
    below = np.sum(s[:-1] ** 2) / np.sum(full ** 2)
    assert below < 0.7


def test_discarded_energy_matches_residual_energy():
    fields = [rand_field(110 + i) for i in range(9)]
    sub = build_subspace(fields, 0.6)
    full = build_subspace(fields, 1.0)
    resid = sum(np.linalg.norm(
        reconstruct(sub, project(sub, f)).data - f.data) ** 2 for f in fields)
    discarded = float(np.sum(full.singular_values ** 2)
                      - np.sum(sub.singular_values ** 2))
    assert resid == pytest.approx(discarded, rel=1e-6)


def test_subspace_invariants_are_enforced_on_construction():
    fields = [rand_field(120 + i) for i in range(4)]
    sub = build_subspace(fields, 1.0)
    with pytest.raises(ValueError):
        DeformationSubspace(dims=sub.dims, spacing=sub.spacing,
                            origin=sub.origin, mean=sub.mean,
                            basis=sub.basis,
                            singular_values=sub.singular_values[::-1].copy(),
                            variance_fraction=1.0)
    fields_of = dict(dims=sub.dims, spacing=sub.spacing, origin=sub.origin,
                     mean=sub.mean, basis=sub.basis)
    nan_first = np.concatenate([[np.nan], sub.singular_values[1:]])
    nan_last = np.concatenate([sub.singular_values[:-1], [np.nan]])
    for values in (nan_first, nan_last, np.full(sub.n_components, np.inf)):
        with pytest.raises(ValueError, match="singular_values must be finite"):
            DeformationSubspace(**fields_of, singular_values=values,
                                variance_fraction=1.0)
    for bad in (True, "0.99", np.bool_(True)):
        with pytest.raises(ValueError, match="variance_fraction must be a real number"):
            DeformationSubspace(**fields_of, singular_values=sub.singular_values,
                                variance_fraction=bad)
    for bad in (np.nan, 0.0, 1.5, -0.5):
        with pytest.raises(ValueError, match=r"variance_fraction must lie in \(0, 1\]"):
            DeformationSubspace(**fields_of, singular_values=sub.singular_values,
                                variance_fraction=bad)


def test_the_arrays_are_read_only_and_the_callers_stay_writeable():
    """The registration plan is built from the mean and basis, so they
    cannot change in place; the arrays a caller passed are copied first."""
    rng = np.random.default_rng(5)
    mean = rng.standard_normal(GRID.dims + (3,))
    basis = np.linalg.qr(rng.standard_normal((GRID.n_voxels * 3, 2)))[0].T.copy()
    sub = DeformationSubspace(dims=GRID.dims, spacing=GRID.spacing, origin=GRID.origin,
                              mean=mean, basis=basis, singular_values=[2.0, 1.0],
                              variance_fraction=1.0)
    for arr in (sub.mean, sub.basis):
        assert not arr.flags.writeable and arr.flags.c_contiguous
        with pytest.raises(ValueError, match="read-only"):
            arr[0] += 1.0
    kept = sub.mean.copy(), sub.basis.copy()
    mean[0, 0, 0, 0] += 1.0
    basis[0, 0] += 1.0
    assert np.array_equal(sub.mean, kept[0]) and np.array_equal(sub.basis, kept[1])
