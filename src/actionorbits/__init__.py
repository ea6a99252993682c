"""actionorbits: periodic n-body orbits by action minimization.

The library parameterizes symmetry-constrained periodic trajectories with
truncated Fourier series, minimizes the action with per-harmonic
preconditioned gradient descent, certifies candidates against the
equations of motion, and stress-tests them by tracking perturbed initial
conditions with an adaptive DOP853 integrator.  The ``orbitctl`` console
script drives the same machinery from the command line.
"""

from .action import (ActionReport, EvalKernel, action, action_with_gradient,
                     gradient)
from .descent import (COLLISION, CONVERGED, ESCAPE, MAX_ITERS,
                      DescentSchedule, RunResult, StopRule,
                      ZigZagDiagnostic, naive_stability_bound,
                      naive_time_descent, run, stability_bound, step)
from .dynamics import (COLLISION_THRESHOLD, Observables, ResidualReport,
                       forces, min_pair_distance, observables,
                       observables_series, potential_energy, residual)
from .errors import (CollisionError, IntegrationError, LayoutError,
                     OrbitError, RecordError)
from .fourier import COS, SIN, Harmonics, Parity, ScalingLaw
# rk4_step and DEFAULT_DT stay exported for the benchmark's set-up probe
from .integrate import (BOUNDED, DEFAULT_DT, EXITED, PerturbationReport,
                        PhaseState, Trajectory, extract_ics,
                        perturb_and_track, return_error, rk4_step, trajectory,
                        trajectory_blocks)
from .potential import PotentialSpec
from .quadrature import QuadratureGrid
from .records import (RESIDUAL_CERTIFICATE, SCHEMA_VERSION, Certificate,
                      OrbitRecord, certify, designated_scale, export_table,
                      load_record, make_record, record_to_model, save_record,
                      validate_record, verify_record, write_text,
                      write_trajectory)
from .symmetry import (BodyBinding, Coupling, Family, OrbitModel,
                       OrthTransform, ParamLayout, ReducedParams,
                       ScalarGenerator, Slot, SpaceTimeSymmetry,
                       SymmetryReport, VectorGenerator, Verdict,
                       a4_elements, all_signed_permutations,
                       build_choreography, build_crisscross,
                       build_cubic_family, collision_parity_check,
                       crisscross_coupling_sign,
                       klein_elements, make_layout, sample_positions,
                       verify_symmetry)

__version__ = "0.1.0"

__all__ = [
    "ActionReport", "BodyBinding", "BOUNDED", "COLLISION", "Certificate",
    "COLLISION_THRESHOLD",
    "CONVERGED", "COS", "CollisionError", "Coupling", "DEFAULT_DT",
    "DescentSchedule", "ESCAPE", "EXITED", "EvalKernel", "Family",
    "Harmonics", "MAX_ITERS",
    "IntegrationError", "LayoutError", "Observables",
    "OrbitError", "OrbitModel", "OrbitRecord", "OrthTransform",
    "ParamLayout", "Parity", "PerturbationReport",
    "PhaseState", "PotentialSpec", "QuadratureGrid", "RESIDUAL_CERTIFICATE",
    "RecordError", "ReducedParams", "ResidualReport", "RunResult",
    "SCHEMA_VERSION", "SIN", "ScalarGenerator", "ScalingLaw", "Slot",
    "SpaceTimeSymmetry", "StopRule", "SymmetryReport", "Trajectory",
    "VectorGenerator", "Verdict", "ZigZagDiagnostic", "a4_elements",
    "action", "action_with_gradient", "all_signed_permutations",
    "build_choreography", "build_crisscross", "build_cubic_family",
    "certify", "collision_parity_check",
    "crisscross_coupling_sign", "designated_scale", "export_table",
    "extract_ics", "forces",
    "gradient", "klein_elements", "load_record", "make_layout",
    "make_record", "min_pair_distance", "naive_stability_bound",
    "naive_time_descent", "observables", "observables_series",
    "perturb_and_track", "potential_energy", "record_to_model",
    "residual", "return_error", "rk4_step", "run",
    "sample_positions", "save_record", "stability_bound", "step",
    "trajectory", "trajectory_blocks",
    "validate_record", "verify_record", "verify_symmetry",
    "write_text", "write_trajectory",
]
