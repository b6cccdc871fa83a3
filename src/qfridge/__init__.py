"""Three-qubit swap-engine refrigeration and purification toolkit.

Simulates a cooling gate on a three-qubit register (a two-qubit hot compound
plus one cold qubit), compiles it to hardware-native gates, runs it through
ideal and noisy channels, and maps out the thermodynamic operation modes on
a temperature grid.
"""
from .circuits import (
    Circuit,
    CouplingMap,
    Gate,
    LINE3,
    PhaseChoice,
    build_target_unitary,
    build_vstar_circuit,
    emit_qasm,
    unitary_of_circuit,
)
from .compiler import CompileReport, compile_generic, global_phase_distance
from .noise import (
    ConfusionMatrix,
    NoiseModel,
    apply_readout_error,
    calibrate,
    evolve_noisy,
    exact_confusion,
    mitigate,
)
from .qcore import (
    apply_unitary,
    basis_index,
    basis_label,
    born_probabilities,
    kron,
    sample_counts,
)
from .sweep import (
    SweepConfig,
    SweepResult,
    evaluate_grid,
    parse_config,
    run_sweep,
    write_csv,
    write_heatmap,
    write_json,
)
from .thermo import (
    DeviceSpec,
    EnergyLedger,
    OperationMode,
    TransitionMatrix,
    analytic_energy_changes,
    analytic_regions,
    dimensionless_beta_omega,
    ground_population_map,
    projected_purity,
    renyi2_purity_check,
    swap_engine_cop,
    transition_matrix,
)

__version__ = "0.1.0"
