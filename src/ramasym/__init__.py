"""Exact coefficients and verified numerics for the asymptotic expansions
of exponential partial sums and their factorial-weighted relatives.

The package computes, in exact rational arithmetic, the polynomial
coefficient families that appear in the large-n expansions of

* the splitting of ``e^{nw}`` into its head and tail at index ``n + v``,
* the central median-type quantity comparing ``e^n / 2`` with the head,
* the factorial-ratio tail sum driven by the exponential integral,

together with verified floating evaluation (every float is computed twice
at staggered precisions and must agree to the requested digits) and a region
classifier for the complex parameter ``w``.  The self-checking ledger of
combinatorial identities that ties every family to an independent
derivation is ``ramasym.checks``; importing the package does not load it.
"""

from .numcore import (GaussianRational, PrecisionError, format_bigfloat,
                      format_rational, parse_gaussian, parse_rational, to_mp,
                      verified_eval)
from .polys import PolyV, PolyW, RationalFnW, Sqrt2Scaled, binomial_poly
from .demoivre import CoeffSequence, clear_caches, harmonic, inv_factorial
from .combinat import (binomial, double_factorial, eulerian2, stirling,
                       stirling_associated)
from .coefficients import (ConjectureReport, ConjectureRow, SaddleCoefficient,
                           SaddleData, U_coeff, alpha_s, beta,
                           check_conjecture, gamma_coeff, gamma_zero, psi,
                           psi_zero, rho, rho_zero, tau, tau_zero)
from .asymptotics import (CurvePoint, ExpansionResult, RegionLabel,
                          S_expansion, T_expansion, classify,
                          gamma_expansion, lambert_w_recip_e, phi,
                          psi_expansion, szego_curve, theta_expansion)
from .oracle import (oracle_Ei, oracle_S, oracle_T, oracle_factorial,
                     oracle_psi, oracle_theta)

__version__ = "0.1.0"

__all__ = [
    "CoeffSequence", "ConjectureReport", "ConjectureRow", "CurvePoint",
    "ExpansionResult", "GaussianRational", "PolyV", "PolyW", "PrecisionError",
    "RationalFnW", "RegionLabel", "S_expansion", "SaddleCoefficient",
    "SaddleData", "Sqrt2Scaled", "T_expansion", "U_coeff", "alpha_s", "beta",
    "binomial", "binomial_poly", "check_conjecture", "classify",
    "clear_caches", "double_factorial", "eulerian2", "format_bigfloat",
    "format_rational", "gamma_coeff", "gamma_expansion", "gamma_zero",
    "harmonic", "inv_factorial", "lambert_w_recip_e", "oracle_Ei", "oracle_S",
    "oracle_T", "oracle_factorial", "oracle_psi", "oracle_theta",
    "parse_gaussian", "parse_rational", "phi", "psi", "psi_expansion",
    "psi_zero", "rho", "rho_zero", "stirling", "stirling_associated",
    "szego_curve", "tau", "tau_zero", "theta_expansion", "to_mp",
    "verified_eval",
]
