"""Levi-form pseudoconvexity analysis of domains in C^n.

Any failure of pseudoconvexity of an open set {rho < 0} is witnessed by a
two-dimensional affine slice: this package evaluates the Levi form on
sampled boundary points via forward-mode Wirtinger jets, constructs the
witness slice and the local quadratic witness at a bad boundary point, and
verifies the whole chain numerically.
"""

__version__ = "0.1.0"

from .expr import (Ast, Error, Jet, check_real_valued, eval_jet,
                   eval_jet_batch, eval_raw, parse)
from .hormander import (QuadraticWitness, VerificationRecord,
                        build_quadratic_witness, eval_quadratic,
                        verify_quadratic_witness)
from .levi import (Domain, LeviProbe, LeviReport, classify, classify_slices,
                   make_domain, restricted_levi_min, sample_boundary,
                   square_box)
from .pipeline import (ForwardSweep, PipelineError, TheoremRun,
                       verify_theorem)
from .slicing import Slice, WitnessCertificate, make_slice, witness_slice

__all__ = [
    "Error", "Ast", "Jet", "parse", "eval_jet", "eval_jet_batch",
    "eval_raw", "check_real_valued",
    "Domain", "LeviProbe", "LeviReport", "make_domain",
    "square_box", "sample_boundary",
    "restricted_levi_min", "classify", "classify_slices",
    "Slice", "WitnessCertificate", "make_slice", "witness_slice",
    "QuadraticWitness", "VerificationRecord", "build_quadratic_witness",
    "eval_quadratic", "verify_quadratic_witness",
    "verify_theorem", "TheoremRun", "ForwardSweep", "PipelineError",
    "__version__",
]
