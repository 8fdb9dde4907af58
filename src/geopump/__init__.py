"""Geometric pumping of driven two-level loops and two-band chains.

The package tracks one family of stroboscopic drives from three angles:
exact SU(2) algebra and its angle charts (`su2`), iterated pump
trajectories (`evolution`), closed-form long-run rates (`asymptotics`),
stability of rational rotations (`stability`), and the lattice model
whose Bloch loops realize those drives (`band`).  `cli` wraps it all in
deterministic tabular runs.
"""

__version__ = "0.1.0"

from .asymptotics import (
    RemovableSingularityWarning,
    p_geometric,
    p_infinity,
    p_infinity_axis_route,
    phi_average,
)
from .band import (
    DriveCycle,
    GapClosedError,
    PumpProfile,
    TptEvent,
    min_gap,
    pump_profile,
    pump_profile_blocks,
    theta_of_k,
    tpt_events,
    winding_number,
)
from .evolution import (
    PumpTrace,
    build_loop_operator,
    propagate_state,
    pump_trace,
    pump_trace_blocks,
    trajectory_angles,
)
from .sampling import make_rng, sample_loop_params
from .stability import (
    EmptyCurveError,
    PhaseDiagram,
    StabilityVerdict,
    classify,
    curve_order,
    matrix_power_closed_form,
    off_diagonal_magnitude,
    phase_diagram,
    stable_curve,
)
from .su2 import (
    HalfTurn,
    IdentityRotationError,
    LoopParams,
    axis_angle_from_euler,
    axis_angle_matrices,
    euler_from_loop,
    euler_matrices,
    half_turn,
    power,
    su2_defect,
)

__all__ = [
    "DriveCycle",
    "EmptyCurveError",
    "GapClosedError",
    "HalfTurn",
    "IdentityRotationError",
    "LoopParams",
    "PhaseDiagram",
    "PumpProfile",
    "PumpTrace",
    "RemovableSingularityWarning",
    "StabilityVerdict",
    "TptEvent",
    "axis_angle_from_euler",
    "axis_angle_matrices",
    "build_loop_operator",
    "classify",
    "curve_order",
    "euler_from_loop",
    "euler_matrices",
    "half_turn",
    "make_rng",
    "matrix_power_closed_form",
    "min_gap",
    "off_diagonal_magnitude",
    "p_geometric",
    "p_infinity",
    "p_infinity_axis_route",
    "phase_diagram",
    "phi_average",
    "power",
    "propagate_state",
    "pump_profile",
    "pump_profile_blocks",
    "pump_trace",
    "pump_trace_blocks",
    "sample_loop_params",
    "stable_curve",
    "su2_defect",
    "theta_of_k",
    "tpt_events",
    "trajectory_angles",
    "winding_number",
]
