"""Online actor-critic tuning of robotic-knee impedance parameters.

The library tunes the per-phase impedance triples of a prosthetic knee so
that its gait features (phase duration, peak knee angle) track those of
the intact knee, evaluated closed loop against reduced-order surrogate
plants.  See the README for the package tour and the demos directory for
narrative walkthroughs of each capability.
"""

from .core import (
    BoundsTable,
    ControlDelta,
    GaitFeatures,
    ImpedanceTriple,
    PHASES,
    Phase,
    PhaseBound,
    TrackingState,
    within_bound,
)
from .dhdp import (
    ActionScale,
    ActorNet,
    CriticNet,
    MonitorParams,
    NumericFaultError,
    PolicyFormatError,
    StageCostParams,
    activation,
    actor_forward,
    critic_forward,
    load_policy,
    save_policy,
    scale_action,
    stability_monitor,
    stage_cost,
    td_error,
)
from .fsm import (
    FsmState,
    ImpedanceSet,
    ParameterRanges,
    apply_delta,
    joint_torque,
    step_fsm,
)
from .harness import (
    DhdpConfig,
    Metrics,
    Trial,
    TrialConfig,
    TrialRecord,
    compute_rms,
    convergence_check,
    run_testing_batch,
    run_training_batch,
    run_trial,
    safety_check,
)
from .plant import (
    FeatureMapConfig,
    FeatureMapPlant,
    OdeKneeConfig,
    OdeKneePlant,
    PlantInstabilityError,
    TargetProgram,
    alignment_errors,
)

__version__ = "0.1.0"
