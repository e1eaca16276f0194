"""Exact-arithmetic classification of Brieskorn-Pham links.

Decides homotopy-sphere status, Sasaki-Einstein existence via the
K-stability inequality, and the diffeomorphism class in bP_{2n} from the
Milnor-fiber signature, with the signature along the exotic infinite
family fitted and checked as one integer forward-difference table in q,
printed in the power basis of p.
"""

__version__ = "0.1.0"

from .arith import BPOrder, bernoulli_even, bounded_compositions, bp_order
from .errors import InvariantViolation, NotQuasiPolynomialError, RefusalError
from .families import (
    FamilySpec,
    brieskorn_reference,
    fit_exotic_tau,
    gen_exotic,
    gen_odd_dim,
    gen_standard,
)
from .lattice import (
    CountSpec,
    SignatureResult,
    beta_via_gamma,
    count_box,
    count_spec,
    delta_closed,
    gamma_family_closed,
    gamma_triangle,
    strip_count_2d,
    tau_brute,
    tau_kernel,
)
from .moduli import maslov_index, mean_euler, moduli_dimension, weighted_monomial_count
from .report import LinkReport, classify_link, report_to_dict
from .stability import contact_obstruction, fujita_subset_oracle, k_stability
from .topology import (
    arf_class,
    build_gcd_graph,
    classify_sphere,
    diffeo_class_even,
    exponent_vector,
)

__all__ = [name for name in dir() if not name.startswith("_")]
