"""Leading-order cost formulas, regime tables, and speedup exponents.

Each priced cost (classical mean field at zero and finite temperature,
the four quantum algorithms, the energy's one-norm) is a sum of leading
terms N^(a/3) eta^(b/3) t, stated once in a module-level table as integer
pairs (a, b). The cost functions evaluate the table, and the regime
exponents beta at N = Theta(eta^alpha) are read off it as the leading
(a alpha + b)/3, so a formula and its exponents cannot disagree.
Suppressed subpolynomial factors (the (Nt/eps)^{o(1)} tails and
polylogs) are reported as exactly 1 and noted symbolically in the
report. Users are expected to compare leading exponents, not constants.
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import EtaTooSmall, MissingM, ValidationError
from .grids import GridSpec

SUPPRESSED_FACTOR_NOTE = "(N t / eps)^o(1) and polylog factors reported as 1"

#: Constant-factor overhead of running time evolution via the
#: amplitude-amplified walk instead of qubitization, per unit lambda*T.
TIME_EVOLUTION_VS_QUBITIZATION_OVERHEAD = 3.0 / (math.e * math.log(2.0))

# Every priced leading cost, each term N^(a/3) eta^(b/3) t written once as
# its integer pair (a, b), in the order the cost sums its terms: the order
# fixes the last bit of each value, and so of every cost report.
_CLASSICAL = ((4, 7), (5, 4))           # zero-T mean field
_CLASSICAL_DENSITY = ((4, 1), (5, -2))  # finite-T density matrix, times M^2
_QUANTUM = {  # name: (terms, hypothetical)
    "first quantized Trotter": (((1, 7), (2, 4)), False),
    "second quantized Trotter": (((4, 1), (5, -2)), False),
    "interaction picture": (((1, 8),), False),
    "fast multipole Trotter": (((1, 4), (2, 1)), True),
}
_ENERGY_NORM = ((1, 5), (2, 1))         # the energy's one-norm, without t


@dataclass(frozen=True)
class CostQuery:
    n_basis: float
    eta: float
    time: float = 1.0
    epsilon: float = 1e-3
    occupied_orbitals: float | None = None   # M, finite-T density matrix
    time_points: float | None = None          # L
    observable_norm: float | None = None      # lambda
    sampling_cost: float = 1.0                # C_samp
    k_body: int = 1

    def __post_init__(self):
        given = [v for v in vars(self).values() if v is not None]
        if not all(math.isfinite(v) for v in given):
            raise ValidationError("cost query fields must be finite")
        if self.n_basis < self.eta or self.eta < 1:
            raise ValidationError("need N >= eta >= 1")
        if not 0 < self.epsilon <= 1:
            raise ValidationError("epsilon must be in (0, 1]")
        if self.time <= 0:
            raise ValidationError("time must be positive")
        if self.occupied_orbitals is not None and not (
                0 < self.occupied_orbitals <= self.n_basis):
            raise ValidationError("M must be positive and cannot exceed N")
        if self.time_points is not None and self.time_points < 1:
            raise ValidationError("the time-point count L must be >= 1")
        if self.observable_norm is not None and self.observable_norm < 0:
            raise ValidationError("the observable norm lambda must be >= 0")
        if self.sampling_cost < 0:
            raise ValidationError("the sampling cost C_samp must be >= 0")
        if not 1 <= self.k_body <= self.eta:
            raise ValidationError("k must lie in 1..eta")


def _terms_value(terms, n, eta, t=1.0, scale=1.0) -> float:
    """Sum of N^(a/3) scale eta^(b/3) t over ``terms``, in their order; a
    negative b divides by eta^(-b/3), which rounds otherwise than
    multiplying by eta^(b/3)."""
    total = 0.0
    for a, b in terms:
        total += (n ** (a / 3) * scale * eta ** (b / 3) * t if b >= 0
                  else n ** (a / 3) * scale * t / eta ** (-b / 3))
    return total


def _exponent_key(alpha: float):
    """Orders terms (a, b) by their eta exponent (a alpha + b)/3 at
    N = eta^alpha, compared exactly: with alpha = p/q, by a p + b q."""
    if not math.isfinite(alpha):
        raise ValidationError("alpha must be finite")
    p, q = float(alpha).as_integer_ratio()
    return lambda term: term[0] * p + term[1] * q


def classical_mf_cost(q: CostQuery, variant: str = "zero-T") -> float:
    """Operation count for classical mean-field propagation.

    zero-T:                N^{4/3} eta^{7/3} t + N^{5/3} eta^{4/3} t
    finite-T-density:      N^{4/3} M^2 eta^{1/3} t + N^{5/3} M^2 t / eta^{2/3}
    finite-T-trajectories: zero-T formula x 1/eps^2
    """
    if variant == "zero-T":
        return _terms_value(_CLASSICAL, q.n_basis, q.eta, q.time)
    if variant == "finite-T-density":
        if q.occupied_orbitals is None:
            raise MissingM("finite-T density-matrix variant needs M")
        return _terms_value(_CLASSICAL_DENSITY, q.n_basis, q.eta, q.time,
                            q.occupied_orbitals ** 2)
    if variant == "finite-T-trajectories":
        return classical_mf_cost(q, "zero-T") / q.epsilon ** 2
    raise ValidationError(f"unknown variant {variant!r}")


def quantum_costs(q: CostQuery) -> dict:
    """Leading gate-complexity values for the quantum algorithms.

    The fast-multipole Trotter entry is hypothetical: no circuit-model
    construction with that cost is known.
    """
    return {name: {"value": _terms_value(terms, q.n_basis, q.eta, q.time),
                   "hypothetical": hypothetical}
            for name, (terms, hypothetical) in _QUANTUM.items()}


def beta_exponents(alpha: float) -> tuple:
    """(beta_classical, beta_quantum): eta exponents of the best algorithms
    when N = Theta(eta^alpha), read off the cost table: the classical
    cost's leading term, and the least leading term of the quantum rows
    that are not hypothetical. Piecewise linear and continuous."""
    if alpha < 1:
        raise ValidationError("alpha must be >= 1")
    key = _exponent_key(alpha)
    leading = [max(terms, key=key) for terms, hypothetical
               in _QUANTUM.values() if not hypothetical]
    (a, b), (c, d) = max(_CLASSICAL, key=key), min(leading, key=key)
    return (a * alpha + b) / 3, (c * alpha + d) / 3


def speedup_exponent(alpha: float) -> float:
    """Classical-over-quantum exponent ratio; > 2 iff alpha < 5/4 or > 4."""
    beta_c, beta_q = beta_exponents(alpha)
    return beta_c / beta_q


def optimal_quantum_label(alpha: float) -> str:
    """Best quantum algorithm by regime of N = Theta(eta^alpha): the
    quantum row of beta_exponents, named with its leading term for first
    quantized Trotter, and qubitization at the alpha = 4 crossover."""
    if alpha < 1:
        raise ValidationError("alpha must be >= 1")
    if alpha < 2:
        return "second quantized Trotter"
    if alpha < 3:
        return "first quantized Trotter (N^(1/3) eta^(7/3) term)"
    if alpha < 4:
        return "first quantized Trotter (N^(2/3) eta^(4/3) term)"
    if alpha == 4:
        return "qubitization"
    return "interaction picture"


def optimal_classical_term(alpha: float) -> str:
    """The leading classical term at N = Theta(eta^alpha); at a tie, the
    first."""
    a, b = max(_CLASSICAL, key=_exponent_key(alpha))
    return f"N^({a}/3) eta^({b}/3)"


@dataclass(frozen=True)
class LambdaParams:
    """Inputs for the block-encoding one-norms of the grid Hamiltonian."""

    cell_volume: float
    eta: int
    n_basis: int
    total_charge: float
    equal_superposition_success: float = 1.0  # P_eq

    def __post_init__(self):
        if self.cell_volume <= 0:
            raise ValidationError("cell volume must be positive")
        if not 0 < self.equal_superposition_success <= 1:
            raise ValidationError("P_eq must be in (0, 1]")


def lattice_kernel_sum(n_basis: int) -> float:
    """lambda_nu = sum over nonzero nu in G of 1/|nu|^2, G the centered
    cube of n_basis = m^3 integer points (m odd)."""
    m = round(n_basis ** (1 / 3))
    if m ** 3 != n_basis or m % 2 == 0:
        raise ValidationError("lattice sum needs N = m^3 with odd m")
    norms = np.sum(GridSpec(3, m, 1.0).index_points ** 2, axis=1)
    nonzero = norms[norms > 0]
    return float(np.sum(1.0 / nonzero))


def lattice_kernel_bound(n_basis: int) -> float:
    """Analytic bound 4 pi N^{1/3} on the lattice kernel sum."""
    return 4.0 * math.pi * n_basis ** (1 / 3)


def lambda_params(p: LambdaParams) -> dict:
    """lambda_nu (exact and bound), lambda_U, lambda_V."""
    nu = lattice_kernel_sum(p.n_basis)
    omega13 = p.cell_volume ** (1 / 3)
    lam_u = p.eta * p.total_charge * nu / (math.pi * omega13)
    lam_v = p.eta * (p.eta - 1) * nu / (2 * math.pi * omega13)
    return {
        "lambda_nu": nu,
        "lambda_nu_bound": lattice_kernel_bound(p.n_basis),
        "lambda_U": lam_u,
        "lambda_V": lam_v,
    }


def interaction_picture_steps(total_unitless_time: float,
                              p: LambdaParams) -> float:
    """Walk-step count 3 T (lambda_U + lambda_V/(1 - 1/eta)) / (P_eq ln 2).

    The one-norms entering the formula are approximated by lambda_U and
    lambda_V themselves; the additive O(1) tail is dropped.
    """
    if p.eta < 2:
        raise EtaTooSmall("step formula needs eta >= 2")
    if total_unitless_time <= 0:
        raise ValidationError("T must be positive")
    lam = lambda_params(p)
    numer = 3.0 * total_unitless_time * (
        lam["lambda_U"] + lam["lambda_V"] / (1.0 - 1.0 / p.eta))
    return numer / (p.equal_superposition_success * math.log(2.0))


def energy_observable_norm(n_basis: float, eta: float) -> float:
    """Block-encoding one-norm of the energy: N^{1/3} eta^{5/3} + N^{2/3} eta^{1/3}."""
    return _terms_value(_ENERGY_NORM, n_basis, eta)


def measurement_costs(q: CostQuery) -> dict:
    """Circuit-repetition costs of the three measurement strategies."""
    if q.time_points is None:
        raise ValidationError("measurement costs need the time-point count L")
    L, eps, c_samp = q.time_points, q.epsilon, q.sampling_cost
    k = q.k_body
    shadows = (k ** k) * q.eta ** k * L * c_samp / eps ** 2
    lam = q.observable_norm
    return {
        "shadows k-RDM": shadows,
        "gradient measurement (norm lambda)": (
            math.sqrt(L) * c_samp * lam / eps if lam is not None else None),
        "gradient measurement (energy)": (
            math.sqrt(L) * c_samp * q.time
            * energy_observable_norm(q.n_basis, q.eta) / eps),
    }


def regime_table(alphas):
    """Yield one row (alpha, beta_c, beta_q, speedup, quantum label,
    classical term) per alpha, as it is made."""
    for alpha in alphas:
        beta_c, beta_q = beta_exponents(alpha)
        yield {
            "alpha": float(alpha),
            "beta_classical": beta_c,
            "beta_quantum": beta_q,
            "speedup": beta_c / beta_q,
            "optimal_quantum": optimal_quantum_label(alpha),
            "optimal_classical_term": optimal_classical_term(alpha),
        }


def cost_report(q: CostQuery) -> dict:
    """Full per-algorithm evaluation with regime metadata; refused when a
    cost overflows a float (a division by eps^2 that underflowed to 0
    included)."""
    try:
        return _cost_report(q)
    except (OverflowError, ZeroDivisionError) as exc:
        raise ValidationError("a cost of this query overflows a float") from exc


def _cost_report(q: CostQuery) -> dict:
    alpha = math.log(q.n_basis) / math.log(q.eta) if q.eta > 1 else float("inf")
    quantum = quantum_costs(q)
    applicable = {name: entry["value"] for name, entry in quantum.items()
                  if not entry["hypothetical"]}
    optimal = min(applicable, key=applicable.get)
    report = {
        "suppressed_factors": SUPPRESSED_FACTOR_NOTE,
        "classical_zero_T": classical_mf_cost(q, "zero-T"),
        "quantum": quantum,
        "optimal_quantum": optimal,
        "alpha": alpha,
    }
    if math.isfinite(alpha) and alpha >= 1:
        report["regime_label"] = optimal_quantum_label(alpha)
        report["speedup_exponent"] = speedup_exponent(alpha)
    if q.occupied_orbitals is not None:
        report["classical_finite_T_density"] = classical_mf_cost(q, "finite-T-density")
        report["classical_finite_T_trajectories"] = classical_mf_cost(
            q, "finite-T-trajectories")
    if q.time_points is not None:
        report["measurements"] = measurement_costs(q)
    return report
