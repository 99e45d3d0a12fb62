"""Shared fixtures: one mid-size synthetic scene reused across modules.

Everything here is deterministic; fixtures are session-scoped so the
projection operator and the training subspace are built once.
"""
import pytest

from tomoreg import (DeformationSpec, DisplacementField, DrrOperator,
                     PhantomSpec, build_subspace, gen_smooth_dvf,
                     geometry_for, grid_for, make_pair, step_for)
from tomoreg.phantom import split_seed

# same physical scene as the 64-cube default, at half resolution
SPEC32 = PhantomSpec(
    dims=(32, 32, 32),
    spacing=(4.4, 4.4, 4.4),
    seed=0,
    deformation=DeformationSpec(n_modes=4, magnitude_mm=12.0,
                                smoothness_sigma_voxels=8.0),
)


def negated(field: DisplacementField) -> DisplacementField:
    return DisplacementField(field.dims, field.spacing, field.origin,
                             -field.data)


def zero_mean_subspace(spec, n_half: int, tag: str, variance: float = 1.0):
    """Subspace whose mean is exactly zero (training set closed under +/-)."""
    fields = []
    for i in range(n_half):
        f = gen_smooth_dvf(spec, seed=split_seed(9000, f"{tag}{i}"))
        fields.append(f)
        fields.append(negated(f))
    return build_subspace(fields, variance)


@pytest.fixture(scope="session")
def op32():
    return DrrOperator(grid_for(SPEC32), geometry_for(SPEC32),
                       step_mm=step_for(SPEC32))


@pytest.fixture(scope="session")
def train_fields32():
    return [gen_smooth_dvf(SPEC32, seed=split_seed(1000, f"tr{i}"))
            for i in range(30)]


@pytest.fixture(scope="session")
def sub32(train_fields32):
    return build_subspace(train_fields32, 0.99)


@pytest.fixture(scope="session")
def pair32(op32):
    return make_pair(SPEC32, seed=2000, drr_op=op32)
