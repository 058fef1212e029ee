"""Numerical laboratory for a peaked-wave shallow water model.

Core objects: periodic fields and the one FFT layer (fields), dyadic
frequency analysis (lpaley), the three equivalent evolution forms
(dynamics), transport / Picard machinery (transport), exact peaked
travelling waves and the weak identity (peakon), and breakdown diagnostics
(blowup).
"""

from .errors import ConfigError, DivergedError, EstimationError
from .fields import (
    Grid1D,
    RealField,
    derivative,
    green_convolve,
    helmholtz_inverse,
    lp_norm,
    random_band_limited,
    refine_field,
    sobolev_norm,
    spectrum,
    synthesize,
)
from .lpaley import (
    besov_norm,
    build_partition,
    dyadic_block,
    inequality_audit,
    low_cutoff,
    partition_for,
    reconstruct,
)
from .dynamics import (
    SolverConfig,
    energy,
    evolve,
    rhs_m_form,
    rhs_spectral_form,
    rhs_u_form,
    stability_experiment,
    step,
)
from .transport import (
    TimeSlices,
    TransportProblem,
    cubic_interp_periodic,
    picard_bound,
    picard_run,
    solve_transport,
    transport_apriori_audit,
)
from .peakon import (
    PeakonSolution,
    TestFunction,
    peakon_energy,
    peakon_field,
    peakon_m,
    peakon_u,
    peakon_w,
    refinement_study,
    weak_residual,
)
from .blowup import (
    BlowupEstimate,
    accumulator_shape,
    check_condition,
    compute_CT,
    estimate_blowup_time,
    rate_report,
    riccati_bound_time,
    riccati_solve,
)

__version__ = "0.1.0"
