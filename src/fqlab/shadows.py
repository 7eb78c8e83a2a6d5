"""Per-register Clifford classical shadows for k-RDM estimation.

Protocol: draw one uniform Clifford per particle register, apply the
tensor product, measure all registers jointly, and invert the single-
register measurement channel M(A) = (A + tr[A] I)/(2^n + 1) offline.
Estimates use a restricted register-index sum (one register per block)
with a median-of-means over sample groups.

The log in the sample-count formula is the natural log. k, epsilon,
delta and the element labels each have one check, named in its message.
"""

from dataclasses import dataclass
from itertools import product
import math

import numpy as np

from .cliffords import (CliffordRows, clifford_from_key, clifford_table,
                        draw_clifford_blocks, table_rows)
from .errors import (
    AssumptionViolated,
    EnumerationUnavailable,
    IndexOutOfRange,
    InsufficientSamples,
    NotAntisymmetric,
    ValidationError,
)
from .grids import register_qubits
from .rng import derive_rng
from .states import (
    FirstQuantizedState,
    check_budget,
    check_labels,
    contract_registers,
    register_factor,
    row_weights,
    sample_registers,
)

_CHUNK = 4096
# Samples per block: as many as keep the largest per-sample arrays of a
# draw, the d N^(eta-2) level-2 slice of sample_registers and the d x N
# table rows of one register's Clifford that each later level gathers,
# within this many complex entries, at least one. At N = 4 that is 512
# samples at eta = 2 and 128 at eta = 4.
_BLOCK_AMPLITUDES = 2 ** 13


@dataclass(frozen=True, eq=False)
class ShadowBatch:
    """Shadow samples as arrays: axis 0 is the sample, axis 1 the register.

    The estimators read only ``rows``, the row U_x[b_x, :N] of each measured
    Clifford; ``keys`` and ``outcomes`` make the batch replayable.
    """

    keys: np.ndarray       # (m, eta) Clifford key strings
    outcomes: np.ndarray   # (m, eta) ints in [0, 2**n)
    rows: np.ndarray       # (m, eta, N) complex

    def __len__(self) -> int:
        return len(self.outcomes)

    def __getitem__(self, index) -> "ShadowBatch":
        """The samples selected by a slice, as views."""
        return ShadowBatch(self.keys[index], self.outcomes[index], self.rows[index])


def check_order(k: int, eta: int) -> None:
    """Refuse an RDM order k outside 1..eta."""
    if not 1 <= k <= eta:
        raise ValidationError(f"k must lie in 1..{eta}, got {k}")


@dataclass(frozen=True)
class RestrictedIndexSet:
    """k-tuples drawing one register from each consecutive block.

    Only eta_used = k * floor(eta / k) registers participate; each block
    has eta_used / k of them.
    """

    eta: int
    k: int

    def __post_init__(self):
        check_order(self.k, self.eta)

    @property
    def eta_used(self) -> int:
        return self.k * (self.eta // self.k)

    @property
    def block_size(self) -> int:
        return self.eta_used // self.k

    def tuples(self):
        """All index tuples (1-based registers), (block_size)**k of them."""
        blocks = [range(b * self.block_size + 1, (b + 1) * self.block_size + 1)
                  for b in range(self.k)]
        return list(product(*blocks))


def _check_accuracy(epsilon: float, delta: float) -> None:
    """Refuse epsilon outside (0, 1] and delta outside (0, 1), NaN included."""
    if not 0 < epsilon <= 1:
        raise ValidationError(f"epsilon must lie in (0, 1], got {epsilon}")
    if not 0 < delta < 1:
        raise ValidationError(f"delta must lie in (0, 1), got {delta}")


def required_samples(n_orbitals: int, k: int, eta: int, epsilon: float,
                     delta: float) -> int:
    """Measurement count 64 e^3 ln(N/delta) k (2k+2e)^k eta^k / eps^2.

    Refused: N < 1, k outside 1..eta, and epsilon or delta out of range.
    """
    if n_orbitals < 1:
        raise ValidationError(f"n_orbitals must be positive, got {n_orbitals}")
    check_order(k, eta)
    _check_accuracy(epsilon, delta)
    value = (64.0 * math.e ** 3 * math.log(n_orbitals / delta) * k
             * (2 * k + 2 * math.e) ** k * eta ** k / epsilon ** 2)
    return math.ceil(value)


def variance_bound(k: int, eta: int) -> float:
    """Single-shot variance bound e^3 eta^k (2k+2e)^k, valid for eta >= 2k."""
    if eta < 2 * k:
        raise AssumptionViolated(f"bound requires eta >= 2k, got eta={eta}, k={k}")
    return math.e ** 3 * eta ** k * (2 * k + 2 * math.e) ** k


@dataclass(frozen=True)
class EstimatorConfig:
    """Median-of-means configuration: K groups of b samples each."""

    k: int
    epsilon: float
    delta: float
    groups: int
    group_size: int

    @staticmethod
    def from_sample_count(k: int, epsilon: float, delta: float,
                          m: int) -> "EstimatorConfig":
        """Fit b to an available sample count; the remainder is dropped.

        Refused: epsilon outside (0, 1] and delta outside (0, 1).
        """
        _check_accuracy(epsilon, delta)
        groups = math.ceil(8 * math.log(1 / delta))
        group_size = m // groups
        if group_size < 1:
            raise InsufficientSamples(f"{m} samples cannot fill {groups} groups")
        return EstimatorConfig(k, epsilon, delta, groups, group_size)


def _collect_chunk(state, part: ShadowBatch, rng) -> None:
    """Fill every sample of ``part`` from its own stream.

    The stream gives one uniform per sample, then eta Clifford draws per
    sample. Each block of samples is then drawn register by register
    (:func:`~fqlab.states.sample_registers`). The register factor is
    formed once, and the level-1 weights once per table: once in all at
    n <= 2, where every block draws from the shared table.
    """
    uniforms = rng.random(len(part))
    dim, n = state.register_dim, state.n_orbitals
    per_sample = max(dim * state.tensor.size // n ** 2, dim * n)
    block = max(1, _BLOCK_AMPLITUDES // per_sample)
    shape = (len(part), state.eta)
    factor = register_factor(state.tensor)
    table = weights = None
    start = 0
    for keys, draws in draw_clifford_blocks(state.qubits_per_register, rng,
                                            shape, block):
        if draws.table is not table:
            table, weights = draws.table, row_weights(factor, draws.table)
        span = slice(start, start + len(keys))
        outcomes = sample_registers(state.tensor, uniforms[span], draws, weights)
        part.keys[span] = keys
        part.outcomes[span] = outcomes
        part.rows[span] = gather_outcome_rows(draws, outcomes, n)
        start += len(keys)


def collect_shadows(state: FirstQuantizedState, m: int, seed: int,
                    threads: int = 1) -> ShadowBatch:
    """Collect m shadow samples.

    Samples are generated in fixed-size chunks, chunk c on the rng stream
    (seed, "shadows", c) and written to its own slice of the batch, so the
    result is identical for any thread count. A negative or over-budget m
    is refused before anything is drawn or allocated.
    """
    if m < 0:
        raise ValidationError("sample count must be nonnegative")
    check_budget(f"{m} samples' outcome rows", (m, state.eta, state.n_orbitals))
    batch = ShadowBatch(np.empty((m, state.eta), dtype=object),
                        np.empty((m, state.eta), dtype=np.int64),
                        np.empty((m, state.eta, state.n_orbitals), dtype=complex))

    def fill(c):
        _collect_chunk(state, batch[c * _CHUNK:(c + 1) * _CHUNK],
                       derive_rng(seed, "shadows", c))

    chunks = range((m + _CHUNK - 1) // _CHUNK)
    if threads > 1 and len(chunks) > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(fill, chunks))
    else:
        for c in chunks:
            fill(c)
    return batch


def gather_outcome_rows(draws: CliffordRows, outcomes: np.ndarray,
                        width: int | None = None) -> np.ndarray:
    """The row U_x[b_x, :width] of each register's Clifford, shape
    (..., eta, width).

    ``draws.elements`` (..., eta) and ``outcomes`` (..., eta) broadcast
    against each other. One gather of table rows, each times its phase
    (:meth:`~fqlab.cliffords.CliffordRows.rows`): no unitary is formed.
    """
    return draws.rows(outcomes, width)


def samples_from_keys(rows, n_orbitals: int) -> ShadowBatch:
    """Rebuild a batch from (clifford-key strings, outcome ints) rows.

    Inverse of the CSV dump: each row is a pair (iterable of keys,
    iterable of outcomes). Rows are ``n_orbitals`` = N wide and budgeted
    as in :func:`collect_shadows`. Then each distinct key's unitary is
    built in turn and only the measured rows of its samples are read from
    it: no stack of unitaries is formed. A dump whose keys act on
    registers of different sizes, or not of 2^ceil(log2 N) labels, is refused.
    """
    rows = list(rows)
    if not rows:
        raise ValidationError("the sample dump is empty: it holds no samples "
                              "to read eta or the register size from")
    keys = np.array([list(ks) for ks, _ in rows], dtype=object)
    outcomes = np.array([[int(b) for b in bs] for _, bs in rows], dtype=np.int64)
    if keys.shape != outcomes.shape:
        raise ValidationError("clifford/outcome length mismatch")
    distinct, which = np.unique(keys, return_inverse=True)
    first = clifford_from_key(distinct[0]).unitary
    dim = len(first)
    if n_orbitals < 1 or 2 ** register_qubits(n_orbitals) != dim:
        raise ValidationError(f"{n_orbitals} orbitals do not take {dim}-label registers")
    check_budget(f"{len(keys)} samples' outcome rows", (*keys.shape, n_orbitals))
    measured = np.zeros(keys.shape + (n_orbitals,), dtype=complex)
    flat_rows, flat_outcomes = measured.reshape(-1, n_orbitals), outcomes.reshape(-1)
    which = which.reshape(-1)  # the flat sample entries of each key, grouped:
    groups = np.split(np.argsort(which, kind="stable"),
                      np.cumsum(np.bincount(which))[:-1])
    for k, (key, picks) in enumerate(zip(distinct, groups)):
        unitary = clifford_from_key(key).unitary if k else first
        if len(unitary) != dim:
            raise ValidationError(
                f"the sample dump mixes register sizes: key {key!r} acts on "
                f"{len(unitary)} labels, key {distinct[0]!r} on {dim}")
        labels = flat_outcomes[picks]
        if not np.all((labels >= 0) & (labels < dim)):
            raise IndexOutOfRange(f"sample outcomes must lie in 0..{dim - 1}")
        flat_rows[picks] = unitary[labels, :n_orbitals]
    return ShadowBatch(keys, outcomes, measured)


def snapshot_term_estimate(rows: np.ndarray, registers, bra_labels,
                           ket_labels) -> complex:
    """Factorized tr[M^{-1}(snapshot) O] for O = prod |i_l><j_l| on x_l.

    ``rows`` holds one sample's outcome rows U_x[b_x, :N], shape (eta, N).
    Registers not in ``registers`` contribute exactly 1 (the inverted
    single-register snapshot has unit trace), so the product runs over
    the k involved registers only.
    """
    eta, width = rows.shape
    check_labels(bra_labels, ket_labels, eta, width, len(registers))
    factors = _RegisterRows(rows[None])
    value = 1.0 + 0.0j
    for x, i, j in zip(registers, bra_labels, ket_labels):
        if not 1 <= x <= eta:
            raise IndexOutOfRange(f"register {x} out of range 1..{eta}")
        value *= factors._factor(x - 1, i, j)[0]
    return complex(value)


def krdm_coefficient(eta: int, k: int) -> float:
    """Prefactor relating the restricted register sum to the k-RDM element."""
    rset = RestrictedIndexSet(eta, k)
    return (k / rset.eta_used) ** k * math.factorial(eta) / math.factorial(eta - k)


def single_shot_values(batch: ShadowBatch, bra_labels,
                       ket_labels) -> np.ndarray:
    """Per-sample estimator values (before grouping), vectorized."""
    return _RegisterRows(batch.rows).values(bra_labels, ket_labels)


class _RegisterRows:
    """Outcome rows (m, eta, N), read on registers of d = 2^ceil(log2 N)
    labels, and the estimator factors read from them.

    The conjugate column (d+1) conj(rows[:, x, j]) of each register x and
    label j is formed on first use and kept, contiguous in the sample, for
    every later element: at most one array the size of ``rows``. Each
    factor of a term is ((d+1) conj(r_j)) r_i - delta_ij, in that order.
    """

    def __init__(self, rows: np.ndarray):
        self.rows = rows
        self._scale = 2 ** register_qubits(rows.shape[2]) + 1  # d + 1
        self._scaled = {}

    def _factor(self, x: int, i: int, j: int) -> np.ndarray:
        """The factor of |i><j| on register x (0-based), per sample."""
        if (x, j) not in self._scaled:
            self._scaled[x, j] = self._scale * np.conj(self.rows[:, x, j])
        factor = self._scaled[x, j] * self.rows[:, x, i]
        if i == j:
            factor -= 1.0
        return factor

    def values(self, bra_labels, ket_labels, k: int | None = None) -> np.ndarray:
        """Estimator values of every sample, after
        :func:`~fqlab.states.check_labels`."""
        m, eta, width = self.rows.shape
        check_labels(bra_labels, ket_labels, eta, width, k)
        values = np.zeros(m, dtype=complex)
        for tup in RestrictedIndexSet(eta, len(bra_labels)).tuples():
            first, *rest = (self._factor(x - 1, i, j)
                            for x, i, j in zip(tup, bra_labels, ket_labels))
            values += math.prod(rest, start=first)
        return krdm_coefficient(eta, len(bra_labels)) * values


def _coordinatewise_median(values: np.ndarray) -> complex:
    """Median of complex values, real and imaginary parts separately.

    Ties (even counts) take the lower median.
    """
    re = np.sort(values.real)
    im = np.sort(values.imag)
    idx = (len(values) - 1) // 2
    return complex(re[idx] + 1j * im[idx])


def _median_of_means(values: np.ndarray, config: EstimatorConfig) -> complex:
    """Median of the K means of b consecutive values; extra values are unused."""
    needed = config.groups * config.group_size
    if len(values) < needed:
        raise InsufficientSamples(
            f"need {needed} samples for K={config.groups}, b={config.group_size}")
    means = values[:needed].reshape(config.groups, config.group_size).mean(axis=1)
    return _coordinatewise_median(means)


def estimate_krdm_element(batch: ShadowBatch, config: EstimatorConfig,
                          bra_labels, ket_labels) -> complex:
    """Median of K group means of the restricted-sum estimator."""
    values = _RegisterRows(batch.rows).values(bra_labels, ket_labels, config.k)
    return _median_of_means(values, config)


def all_1rdm_elements(n_orbitals: int) -> list:
    """Every 1-RDM element ((i,), (j,)), row-major."""
    return [((i,), (j,)) for i in range(n_orbitals) for j in range(n_orbitals)]


def estimate_elements(batch: ShadowBatch, config: EstimatorConfig, elements):
    """Yield ((bra, ket), (estimate, single-shot values)) per element.

    The values cover the whole batch and are computed once per element,
    from conjugate factors formed once per batch; the estimate is the
    median of means over the first K * b of them.
    """
    rows = _RegisterRows(batch.rows)
    for bra, ket in elements:
        values = rows.values(bra, ket, config.k)
        yield (bra, ket), (_median_of_means(values, config), values)


def read_out(state: FirstQuantizedState, k: int, epsilon: float, delta: float,
             samples, seed: int, elements, threads: int = 1):
    """k-RDM elements of an antisymmetric state from one shadow batch.

    Every input is checked before any sample is drawn: the state's
    amplitudes (the restricted register sum estimates a k-RDM only for an
    antisymmetric state); k, epsilon and delta, by :func:`required_samples`
    on either path; ``samples``, "auto" (that count) or a positive int, its
    batch size by :func:`collect_shadows`; and ``elements``, "all-1rdm"
    (k = 1 only) or (bra, ket) tuples of k labels in 0..N-1. Returns the
    estimator configuration, the batch and the :func:`estimate_elements`
    stream.
    """
    if not state.is_antisymmetric():
        raise NotAntisymmetric("shadow protocol expects an antisymmetric state")
    required = required_samples(state.n_orbitals, k, state.eta, epsilon, delta)
    if samples == "auto":
        samples = required
    elif (isinstance(samples, bool) or not isinstance(samples, (int, np.integer))
          or samples < 1):
        raise ValidationError(
            f"samples must be 'auto' or a positive integer, got {samples!r}")
    config = EstimatorConfig.from_sample_count(k, epsilon, delta, samples)
    if elements == "all-1rdm":  # refused below unless k = 1
        elements = all_1rdm_elements(state.n_orbitals)
    for bra, ket in elements:
        check_labels(bra, ket, state.eta, state.n_orbitals, k)
    batch = collect_shadows(state, samples, seed, threads=threads)
    return config, batch, estimate_elements(batch, config, elements)


# -- exhaustive-channel verification -----------------------------------------


def exhaustive_estimator_mean(state: FirstQuantizedState, bra_labels,
                              ket_labels) -> complex:
    """Exact estimator mean: average over all Clifford tuples and outcomes.

    Only available when the single-register group can be enumerated
    (n <= 2). Equals the exact k-RDM element; the identity
    M^{-1}(M(sigma)) = sigma register by register is what this exercises.

    All |G|^eta Clifford tuples take one batched contraction, and every
    (tuple, outcome) pair is weighted by its Born probability at once.
    Refused before any tuple is built when the rows of every pair, the
    largest array, would exceed the dense regime.
    """
    table = table_rows(state.qubits_per_register)
    order = len(table.index)
    eta, dim, n = state.eta, state.register_dim, state.n_orbitals
    check_budget(f"the exhaustive mean's rows over {order}^{eta} "
                 f"Clifford tuples", (order * dim,) * eta + (eta, n))
    combos = np.indices((order,) * eta).reshape(eta, -1).T
    columns = table.select(combos).unitaries()[..., :n]  # (tuples, eta, d, N)
    probs = np.abs(contract_registers(state.tensor, columns)) ** 2
    outcomes = np.indices((dim,) * eta).reshape(eta, -1).T
    # rows[c, o, x] = U_{c, x}[o_x, :N], for outcome o in row-major order
    rows = gather_outcome_rows(table.select(combos[:, None]), outcomes[None], n)
    values = _RegisterRows(rows.reshape(-1, eta, n)).values(bra_labels,
                                                            ket_labels)
    return complex(probs.reshape(-1) @ values / order ** eta)


def twirl_deviations(n: int, a: np.ndarray, b: np.ndarray,
                     c: np.ndarray) -> tuple:
    """Max deviations of the 2-fold and 3-fold twirl identities.

    2-fold:  E_U U†|x><x|U <x|U A U†|x>
               = (A + tr[A] I) / (2^n (2^n + 1))
    3-fold:  E_U U†|x><x|U <x|U B U†|x> <x|U C U†|x>
               = (I (tr[BC] + tr[B] tr[C]) + B tr[C] + C tr[B] + BC + CB)
                 / (2^n (2^n + 1) (2^n + 2))

    Both are checked for every computational basis outcome x by
    exhaustive average over the group table.
    """
    if n > 2:
        raise EnumerationUnavailable("twirl checks need the group table (n <= 2)")
    table = clifford_table(n)
    dim = 2 ** n
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    c = np.asarray(c, dtype=complex)
    rhs2 = (a + np.trace(a) * np.eye(dim)) / (dim * (dim + 1))
    rhs3 = (np.eye(dim) * (np.trace(b @ c) + np.trace(b) * np.trace(c))
            + b * np.trace(c) + c * np.trace(b) + b @ c + c @ b)
    rhs3 = rhs3 / (dim * (dim + 1) * (dim + 2))
    dev2 = 0.0
    dev3 = 0.0
    for x in range(dim):
        acc2 = np.zeros((dim, dim), dtype=complex)
        acc3 = np.zeros((dim, dim), dtype=complex)
        for u in table:
            ux = u.conj().T[:, x]          # U†|x>
            proj = np.outer(ux, ux.conj())  # U†|x><x|U
            amp_a = ux.conj() @ (a @ ux)    # <x|U A U†|x>
            amp_b = ux.conj() @ (b @ ux)
            amp_c = ux.conj() @ (c @ ux)
            acc2 += proj * amp_a
            acc3 += proj * amp_b * amp_c
        acc2 /= len(table)
        acc3 /= len(table)
        dev2 = max(dev2, float(np.max(np.abs(acc2 - rhs2))))
        dev3 = max(dev3, float(np.max(np.abs(acc3 - rhs3))))
    return dev2, dev3


def twirl_identity_check(n: int, a: np.ndarray, b: np.ndarray, c: np.ndarray,
                         tol: float = 1e-10) -> bool:
    dev2, dev3 = twirl_deviations(n, a, b, c)
    return dev2 < tol and dev3 < tol
