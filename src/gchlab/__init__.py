"""Numerical laboratory for a peaked-wave shallow water model.

Core objects: periodic fields and the one FFT layer (fields), dyadic
frequency analysis (lpaley), the three equivalent evolution forms
(dynamics), transport / Picard machinery (transport), exact peaked
travelling waves and the weak identity (peakon), and breakdown diagnostics
(blowup).

The names below are re-exported from their submodules on first access
(PEP 562), so `import gchlab` loads no submodule and a CLI run imports only
the modules its runner reaches.
"""

import importlib

_EXPORTS = {
    "errors": ("ConfigError", "DivergedError", "EstimationError"),
    "fields": (
        "Grid1D",
        "RealField",
        "derivative",
        "green_convolve",
        "helmholtz_inverse",
        "lp_norm",
        "random_band_limited",
        "refine_field",
        "sobolev_norm",
        "spectrum",
        "synthesize",
    ),
    "lpaley": (
        "besov_norm",
        "build_partition",
        "dyadic_block",
        "inequality_audit",
        "low_cutoff",
        "partition_for",
        "reconstruct",
    ),
    "dynamics": (
        "SolverConfig",
        "energy",
        "evolve",
        "rhs_m_form",
        "rhs_spectral_form",
        "rhs_u_form",
        "stability_experiment",
        "step",
    ),
    "transport": (
        "TimeSlices",
        "TransportProblem",
        "cubic_interp_periodic",
        "picard_bound",
        "picard_run",
        "solve_transport",
        "transport_apriori_audit",
    ),
    "peakon": (
        "PeakonSolution",
        "TestFunction",
        "peakon_energy",
        "peakon_field",
        "peakon_m",
        "peakon_u",
        "peakon_w",
        "refinement_study",
        "weak_residual",
    ),
    "blowup": (
        "BlowupEstimate",
        "accumulator_shape",
        "check_condition",
        "compute_CT",
        "estimate_blowup_time",
        "rate_report",
        "riccati_bound_time",
        "riccati_solve",
    ),
}
# re-exported name -> the submodule that defines it
_SOURCE = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name: str):
    mod = _SOURCE.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{mod}"), name)
