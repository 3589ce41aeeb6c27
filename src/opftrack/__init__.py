"""Online voltage regulation for distribution feeders.

The package implements a measurement-driven primal-dual controller that
steers inverter setpoints toward the optimizers of a time-varying,
regularized OPF surrogate, plus the supporting pieces: feeder data model
and admittance assembly, a fixed-point AC power-flow solver, a linearized
voltage-magnitude model, a Volt/VAr droop baseline, a closed-loop
simulator, and a command line front end.
"""

from .baseline import droop_q
from .controller import (
    ControllerParams,
    ConvergenceConstants,
    CostParams,
    FactoredCoupling,
    Inverters,
    OracleError,
    SaddleProblem,
    SaddleSolution,
    StepMap,
    VoltageCoupling,
    convergence_constants,
    dual_step_feedback,
    grad_primal,
    pack_state,
    primal_step,
    saddle_residual,
    solve_saddle_oracle,
)
from .feeder import (
    AdmittanceMatrix,
    FeederError,
    FeederModel,
    build_admittance,
    load_feeder,
    save_feeder,
    validate_feeder,
)
from .powerflow import (
    LinearModel,
    PFSolution,
    PowerFlowError,
    VoltageCollapseError,
    build_linear_model,
    constraint_offsets,
    no_load_voltage,
    predict_voltage_magnitude,
    solve_ac,
)
from .sim import (
    CompiledFeeder,
    Scenario,
    ScenarioParams,
    Trajectory,
    TrackingReport,
    compile_feeder,
    eval_cost,
    generate_scenario,
    measure_tracking,
    oracle_map,
    read_scenario,
    run_closed_loop,
    step_problem,
    write_trajectory,
)

__version__ = "0.1.0"
