"""specpair: numerical laboratory for a pair of bump-perturbed oscillator potentials.

The package constructs the potentials x^2 + t*alpha + eps*beta(+-x), computes
their spectra with correlated-grid accuracy, and verifies the spectral-pair
phenomenology: near-identical spectra with a strictly different ground state,
first-order eigenvalue variation, angle-comparison inequalities, and the
defining properties of the associated Weber (parabolic cylinder) solution.
"""

from .potential import (
    BumpSpec,
    PotentialSpec,
    bump_eval,
    harmonic,
    potential_derivative,
    potential_eval,
    validate,
)
from .eigensolve import (
    Grid,
    Spectrum,
    TridiagonalOperator,
    count_below,
    discretize,
    eigenvalues_below,
    eigenvector,
    refine,
)
from .pruefer import (
    CoefficientQ,
    PrueferTrace,
    compare_angles,
    compare_solutions,
    integrate_angle,
    shoot_eigenvalue,
)
from .weber import (
    WeberSolution,
    check_properties,
    matched_ground_state,
    ode_ground_state,
    solve_weber,
)
from .hadamard import asymmetry_witness, fd_oracle, solve_level, variational_derivative
from .traces import (
    GapCurve,
    TestFunction,
    fit_gap_decay,
    gap_sweep,
    isospectral_distance,
    spectral_density,
    weyl_consistency,
    weyl_term,
)

__version__ = "0.1.0"
