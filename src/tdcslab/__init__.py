"""Interference-avoiding TDCS cognitive-radio toolkit.

Builds almost-perfect Kronecker spreading waveforms over sensed spectrum
marks, allocates windowed cyclic-shift-keying ranges that keep multiuser
interference exactly zero, and measures BER by Monte Carlo simulation over
single-path and multipath fading channels against a traditional full-range
CCSK baseline.
"""

__version__ = "0.1.0"

from .allocation import (
    MuiCheck,
    ShiftPlan,
    ShiftWindow,
    Throughput,
    m_max,
    plan_shifts,
    throughput,
    u_max,
    verify_mui_free,
)
from .channel import (
    GainMatrix,
    MultipathProfile,
    NoiseSpec,
    apply_multipath,
    apply_single_path,
    cost207_ra6,
    draw_gains,
    draw_taps,
    gains_from_nf,
)
from .errors import (
    CapacityError,
    DimensionError,
    ParameterError,
    ScenarioError,
    SequenceValidationError,
    TdcsError,
)
from .receiver import (
    DecisionStatistic,
    demodulate_window,
    mmse_fde,
    rake_demodulate,
)
from .seqcore import (
    PolyphaseSequence,
    ZeroZoneReport,
    aperiodic_xcorr,
    builtin_quadriphase16,
    export_complex_csv,
    gen_zadoff_chu,
    is_perfect_sequence,
    kronecker_synthesize,
    periodic_xcorr_fft,
    zero_zone_verify,
)
from .simharness import (
    BerRecord,
    ScenarioConfig,
    emit_results,
    load_scenario,
    parse_scenario,
    run_ber_scenario,
)
from .spectrum import (
    SpectrumMark,
    correlation_coefficient,
    mark_from_bands,
    mismatch_mask,
)
from .waveform import (
    BasisFmw,
    KroneckerFmwUser,
    ModulatedBlock,
    add_cyclic_prefix,
    build_user_fmw,
    gen_phase_sequence,
    modulate,
    remove_cyclic_prefix,
    synth_fmw,
)
