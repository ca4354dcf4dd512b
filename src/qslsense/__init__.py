"""Sensing at the quantum speed limit: closed forms, exact sequence propagation,
full spin-1 lab-frame simulation, and response/optimality analysis."""

from .analytic import (
    BipartiteParams,
    MetricsReport,
    NumericError,
    QslInput,
    bandwidth_3db,
    bandwidth_first_root,
    bipartite_sensitivity,
    effective_phase_extended,
    equivalent_duration,
    exact_transition_probability,
    first_order_probability,
    kernel_value,
    metrics_report,
    phase_scaling_factor,
    phase_scaling_magnitude,
    qsl_times,
    rise_time,
    time_resolution_fwhm,
    transfer_value,
)
from .labframe import (
    NvModel,
    Protocol,
    PulseWindow,
    Stimulus,
    bipartite_protocol,
    evolve,
    rabi_frequency,
    run_protocol,
    run_protocol_batch,
)
from .optimize import (
    SensitivitySurface,
    golden_section_max,
    optimal_duration,
    scan_timeshare_phase,
    sensitivity_surface,
    sinusoid_sensitivity,
)
from .response import (
    BodeSeries,
    FitError,
    KernelEstimate,
    LabFrameRunner,
    RotatingFrameRunner,
    bode_response,
    estimate_kernel,
    fit_sine_amplitude,
)
from .sequence import (
    ControlSequence,
    PulseSegment,
    make_bipartite,
    propagate,
    transition_probability,
)
from .spinlin import (
    ContractViolation,
    expectation,
    matexp_antihermitian,
    overlap_probability,
    spin_operators,
)
from .units import ConfigError, parse_quantity

__version__ = "0.1.0"
