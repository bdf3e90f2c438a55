"""Matrix-free spectral Galerkin toolkit for Schrodinger-type coefficient ODEs.

The package splits into small layers:

``index_set``       full cubes, hyperbolic crosses, coefficient vectors
``hermite_basis``   Hermite function evaluation and Gauss-Hermite rules
``potential_approx`` tensor Chebyshev surrogates of smooth potentials
``fast_apply``      the insertion algorithm (matrix-free potential matvec)
``galerkin_oracle`` dense quadrature-based reference operators
``krylov_propagator`` Lanczos exponentials and Magnus stepping
``error_lab``       quadrature / reduction / perturbation error studies
``cli``             experiment driver (``hprop`` console script)
"""

from .index_set import (
    CoeffVector,
    IndexSet,
    build_full,
    build_hyperbolic,
    extend,
    from_indices,
    restrict,
)
from .hermite_basis import (
    QuadratureRule,
    check_support_condition,
    eval_hermite_functions,
    gauss_hermite_rule,
)
from .potential_approx import (
    ChebApprox,
    PotentialSpec,
    custom_potential,
    eval_interpolant,
    fit_error,
    henon_heiles_perturbed,
    interpolate,
    potential_by_name,
    product_potential,
    smooth_remainder,
    torsional,
    torsional_minus_harmonic,
)
from .fast_apply import (
    PolynomialApplier,
    apply_hamiltonian,
    fast_algorithm,
    get_applier,
    square_sum_apply,
)
from .galerkin_oracle import (
    DenseOperator,
    assemble_coordinate,
    assemble_exact_galerkin,
    assemble_oscillator_diagonal,
    assemble_quad_galerkin,
    assemble_square_sum,
    assemble_with_rule,
    verify_diagonalization,
)
from .krylov_propagator import (
    LanczosFactorization,
    MagnusScheme,
    expm_tridiag_column,
    lanczos,
    lanczos_exp_apply,
    magnus_step,
    propagate_magnus,
)
from .error_lab import (
    FastHamiltonian,
    OracleHamiltonian,
    build_reference,
    lanczos_perturbation_error,
    make_decay_vector,
    propagate_and_compare,
    quadrature_error,
    reduction_error,
    reduction_local_mask,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
