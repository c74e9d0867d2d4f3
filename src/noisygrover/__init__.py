"""Grover search under time-correlated local unitary noise.

Exact density-matrix simulation of the noisy search dynamics (collisional
construction with a classical walker register), closed-form results for
the position-independent "good noise" family, unitary dilations of the
collision step with pure or thermal ancillas, and discrete-time
non-Markovianity witnesses.
"""

from .linalg import (
    DensityReport,
    InvariantViolation,
    assert_density,
    partial_trace,
    projector,
    require_density,
    tensor,
    trace_distance,
    trace_norm,
)
from .grover import (
    GroverInstance,
    grover_operator,
    ideal_success_closed_form,
    ideal_success_series,
    marked_state,
    optimal_iterations,
    uniform_superposition,
)
from .noise import (
    MarkovNoiseParams,
    NoiseClass,
    NoiseClassTag,
    NoiseSpec,
    SingleQubitUnitary,
    build_chi,
    classify_noise,
    closed_form_overlaps,
    conditional_probs,
    noise_spec,
    noise_unitary,
    noisy_grover,
    sigma_x_reduced,
    sigma_y_p2,
    single_qubit_unitary,
    w_prime,
)
from .collision import (
    EvolutionTrace,
    FactorizationReport,
    KrausSet,
    ThermalBathParams,
    apply_kraus,
    channel_maps,
    collision_evolve,
    collision_first_max,
    dilation_unitary,
    extract_m,
    kraus_from_dilation,
    kraus_step,
    thermal_kraus,
    thermal_weights,
    transfer_weights,
    unitarity_defect,
    verify_dilation,
)
from .markov import (
    history_oracle,
    markov_evolve,
    markov_first_max,
    markov_series,
    perfect_memory_analytic,
    perfect_memory_first_max,
)
from .measures import (
    MeasureResult,
    n_blp,
    n_cp,
    positive_increment_sum,
)

__version__ = "0.1.0"
