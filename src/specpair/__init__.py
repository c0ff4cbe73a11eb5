"""specpair: numerical laboratory for a pair of bump-perturbed oscillator potentials.

The package constructs the potentials x^2 + t*alpha + eps*beta(+-x), computes
their spectra with correlated-grid accuracy, and verifies the spectral-pair
phenomenology: near-identical spectra with a strictly different ground state,
first-order eigenvalue variation, angle-comparison inequalities, and the
defining properties of the associated Weber (parabolic cylinder) solution.
"""

__version__ = "0.1.0"
