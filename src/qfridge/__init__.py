"""Three-qubit swap-engine refrigeration and purification toolkit.

Simulates a cooling gate on a three-qubit register (a two-qubit hot compound
plus one cold qubit), compiles it to hardware-native gates, runs it through
ideal and noisy channels, and maps out the thermodynamic operation modes on
a temperature grid.

``compile_generic`` is loaded on first use: sweeps, points and the compile
command run fixed circuits and never import the compiler.
"""
from .circuits import (
    Circuit,
    CompileReport,
    CouplingMap,
    Gate,
    LINE3,
    build_identity_circuit,
    build_target_unitary,
    build_vstar_circuit,
    emit_qasm,
    unitary_of_circuit,
)
from .noise import (
    NoiseModel,
    apply_readout_error,
    calibrate,
    mitigate,
    readout_inverse,
    readout_matrix,
)
from .qcore import (
    basis_index,
    basis_label,
    born_probabilities,
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
    TransitionMatrix,
    analytic_energy_changes,
    analytic_regions,
    swap_engine_cop,
    transition_matrix,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    # imported on first access and not stored here, so this name always
    # reads the compiler module's own binding
    if name == "compile_generic":
        from .compiler import compile_generic

        return compile_generic
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
