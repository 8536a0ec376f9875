"""Numerical kinematics toolkit for the orthogonal 3-RRR spherical
parallel wrist (Agile Eye): closed-form inverse and direct kinematics
with all degenerate branches, Jacobian-based singularity classification,
working/assembly mode correspondence, and joint-space sweeps."""

from .config import DEFAULT_CONFIG, ToolConfig, load_config
from .dk import (
    FAMILY_LABELS,
    DkResult,
    JointDegeneracy,
    classify_joint_degeneracy,
    self_motion_family,
    solve_dk,
    trivial_orientations,
)
from .exceptions import (
    AgileEyeError,
    DegenerateJoints,
    DenominatorDegenerate,
    MalformedRotation,
    NoMatchingSolution,
    NoSuchMode,
    NotAssembled,
    SingularNoSignature,
    StartNotASolution,
    UnknownFamily,
)
from .ik import IkSolutionSet, LegIkOutcome, solve_ik
from .mechanism import JointTriplet, WorkingModeSignature, constraint_residuals
from .modes import (
    SingularityCrossing,
    TrackResult,
    assembly_mode_for,
    assembly_mode_id,
    track_path,
    working_mode_signature,
)
from .singularity import (
    JacobianPair,
    SingularityClass,
    b_diag_closed_form,
    classify_configuration,
    det_a_closed_form,
    family_distance,
    jacobians,
)
from .so3 import EulerZyx, euler_to_rotation, rotation_distance, validate_rotation, wrap_angle
from .sweep import SweepRecord, SweepResult, iter_records, joint_grid, run_sweep

__version__ = "0.1.0"

__all__ = [
    "AgileEyeError",
    "DEFAULT_CONFIG",
    "DegenerateJoints",
    "DenominatorDegenerate",
    "DkResult",
    "EulerZyx",
    "FAMILY_LABELS",
    "IkSolutionSet",
    "JacobianPair",
    "JointDegeneracy",
    "JointTriplet",
    "LegIkOutcome",
    "MalformedRotation",
    "NoMatchingSolution",
    "NoSuchMode",
    "NotAssembled",
    "SingularityClass",
    "SingularityCrossing",
    "SingularNoSignature",
    "StartNotASolution",
    "SweepRecord",
    "SweepResult",
    "ToolConfig",
    "TrackResult",
    "UnknownFamily",
    "WorkingModeSignature",
    "assembly_mode_for",
    "assembly_mode_id",
    "b_diag_closed_form",
    "classify_configuration",
    "classify_joint_degeneracy",
    "constraint_residuals",
    "det_a_closed_form",
    "euler_to_rotation",
    "family_distance",
    "iter_records",
    "jacobians",
    "joint_grid",
    "load_config",
    "rotation_distance",
    "run_sweep",
    "self_motion_family",
    "solve_dk",
    "solve_ik",
    "track_path",
    "trivial_orientations",
    "validate_rotation",
    "working_mode_signature",
    "wrap_angle",
]
