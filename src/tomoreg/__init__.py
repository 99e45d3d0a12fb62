"""Limited-angle 2D/3D deformable registration with a PCA displacement subspace.

The pipeline: render projections of a deformed volume under a multi-emitter
acquisition geometry, optionally backproject them into per-emitter volume
channels, build a low-dimensional PCA model of plausible displacement
fields, then register by optimizing subspace coefficients (or a free-form
field) under a masked similarity loss with diffusion regularization, and
evaluate with landmark, overlap and Jacobian metrics.
"""

from .grids import (GridSpec, Image3D, Mask3D, DisplacementField, Landmarks,
                    JacobianStats, zero_displacement, warp_image,
                    sample_displacement, jacobian_stats)
from .geometry import (SdctGeometry, ProjectionSet, LiftedVolume, DrrOperator,
                       build_sdct_geometry, default_step_mm, lift3d)
from .subspace import DeformationSubspace, build_subspace, project, reconstruct
from .losses import LossConfig, LossContext, NumericalAbort, grad_alpha, grad_dense
from .registration import (OptimConfig, RegistrationReport, register_subspace_3d,
                           register_subspace_2d, register_dense_3d)
from .metrics import (MetricsReport, mtre, per_axis_error, dice,
                      evaluate_registration)
from .phantom import (PhantomSpec, DeformationSpec, AcquisitionSpec,
                      PhantomPair, split_seed, grid_for, geometry_for,
                      step_for, gen_phantom, gen_smooth_dvf, make_pair)

__version__ = "0.1.0"

__all__ = [
    "GridSpec", "Image3D", "Mask3D", "DisplacementField", "Landmarks",
    "JacobianStats", "zero_displacement", "warp_image",
    "sample_displacement", "jacobian_stats",
    "SdctGeometry", "ProjectionSet", "LiftedVolume", "DrrOperator",
    "build_sdct_geometry", "default_step_mm", "lift3d",
    "DeformationSubspace", "build_subspace", "project", "reconstruct",
    "LossConfig", "LossContext", "grad_alpha", "grad_dense",
    "OptimConfig", "RegistrationReport", "NumericalAbort",
    "register_subspace_3d", "register_subspace_2d", "register_dense_3d",
    "MetricsReport", "mtre", "per_axis_error", "dice", "evaluate_registration",
    "PhantomSpec", "DeformationSpec", "AcquisitionSpec", "PhantomPair",
    "split_seed", "grid_for", "geometry_for", "step_for", "gen_phantom",
    "gen_smooth_dvf", "make_pair",
]
