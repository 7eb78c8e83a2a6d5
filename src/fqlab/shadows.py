"""Per-register Clifford classical shadows for k-RDM estimation.

Protocol: draw one uniform Clifford per particle register, apply the
tensor product, measure all registers jointly, and invert the single-
register measurement channel M(A) = (A + tr[A] I)/(2^n + 1) offline.
A sample's estimate sums the product of k register factors over every
ordered tuple of k distinct registers: the paper's sum over one register
from each of k blocks, averaged over register permutations, under which
an antisymmetric state's samples are exchangeable. So its mean is the
same and its variance no larger (Rao-Blackwell): the paper's variance
bound and sample count hold. k >= 2 estimates differ from fqlab 0.2.0.
Estimates take a median of means over sample groups.

The log in the sample-count formula is the natural log. k, epsilon,
delta and the element labels each have one check, named in its message.
"""

from dataclasses import dataclass
import math

import numpy as np

from .cliffords import (GROUP_ORDER_MOD_PHASE, CliffordRows, KeyText,
                        clifford_from_key, draw_clifford_blocks)
from .errors import (
    AssumptionViolated,
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
    pair_weights,
    register_factor,
    row_weights,
    sample_registers,
)

_CHUNK = 4096
# Samples per block: as many as keep the largest per-sample arrays of a
# draw within this many complex entries, at least one. These are the d x N
# table rows of one register's Clifford that a level gathers and, in
# sample_registers, the d N^(eta-2) level-2 slice at n >= 3, or at n <= 2
# the N^(eta-2) slice level 3 reads and the d N^(eta-3) slice it writes,
# held together. At N = 4 that is 512 samples at eta = 2 and 3 and 256 at
# eta = 4.
_BLOCK_AMPLITUDES = 2 ** 13


@dataclass(frozen=True, eq=False)
class ShadowBatch:
    """Shadow samples as arrays: axis 0 is the sample, axis 1 the register.

    The estimators read only ``rows``, the row U_x[b_x, :N] of each measured
    Clifford; ``ids`` and ``outcomes`` make the batch replayable. Each
    register's Clifford is named by an integer id, which ``names`` reads
    as key text (:attr:`keys`) only when asked: at n <= 2 the id is the
    table index, otherwise it indexes the batch's key strings.
    """

    ids: np.ndarray        # (m, eta) Clifford ids
    outcomes: np.ndarray   # (m, eta) ints in [0, 2**n)
    rows: np.ndarray       # (m, eta, N) complex
    names: KeyText         # the key text of the ids

    @property
    def keys(self) -> np.ndarray:
        """The (m, eta) Clifford key strings, formed on each read."""
        return self.names.text(self.ids)

    def __len__(self) -> int:
        return len(self.outcomes)


def check_order(k: int, eta: int) -> None:
    """Refuse an RDM order k outside 1..eta."""
    if not 1 <= k <= eta:
        raise ValidationError(f"k must lie in 1..{eta}, got {k}")


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
    """Single-shot variance bound e^3 eta^k (2k+2e)^k, valid for eta >= 2k:
    proved for the block-restricted sum, which the estimator averages."""
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


def collect_shadows(state: FirstQuantizedState, m: int, seed: int) -> ShadowBatch:
    """Collect m shadow samples.

    Samples come in chunks of a fixed size, chunk c from its own rng
    stream (seed, "shadows", c): one uniform per sample, then eta
    Clifford draws per sample. Each block of samples is then drawn
    register by register (:func:`~fqlab.states.sample_registers`). The
    register factor is formed once per batch, and the level-1 weights
    once per table: once in all at n <= 2, where every block draws from
    the shared table, and with them the level-2 weights of every pair of
    its stabilizer rays (:func:`~fqlab.states.pair_weights`). There a
    draw's table index is its id and the batch holds no key text; at
    n >= 3 id i names slot i of the batch's key strings, one per draw. A
    negative or over-budget m is refused before anything is drawn or
    allocated.
    """
    if m < 0:
        raise ValidationError("sample count must be nonnegative")
    check_budget(f"{m} samples' outcome rows", (m, state.eta, state.n_orbitals))
    shape, n = (m, state.eta), state.qubits_per_register
    dim, width, size = state.register_dim, state.n_orbitals, state.tensor.size
    if n in GROUP_ORDER_MOD_PHASE:
        ids, names = np.empty(shape, dtype=np.int64), KeyText(n)
        per_sample = max(size // width ** 2 + dim * size // width ** 3, dim * width)
    else:
        ids = np.arange(m * state.eta).reshape(shape)
        names = KeyText(n, np.empty(m * state.eta, dtype=object))
        per_sample = max(dim * size // width ** 2, dim * width)
    block = max(1, _BLOCK_AMPLITUDES // per_sample)
    batch = ShadowBatch(ids, np.empty(shape, dtype=np.int64),
                        np.empty(shape + (width,), dtype=complex), names)
    factor = register_factor(state.tensor)
    table = weights = pairs = None
    start = 0
    for c in range((m + _CHUNK - 1) // _CHUNK):
        rng = derive_rng(seed, "shadows", c)
        uniforms = rng.random(min(_CHUNK, m - start))
        for text, draws in draw_clifford_blocks(n, rng, (len(uniforms), state.eta),
                                                block):
            if draws.table is not table:
                table, weights = draws.table, row_weights(factor, draws.table)
                if draws.rays is not None and state.eta > 1:
                    pairs = pair_weights(state.tensor, draws.rays.table)
            count = len(draws.elements)
            span = slice(start, start + count)
            outcomes = sample_registers(state.tensor, uniforms[:count], draws,
                                        weights, pairs)
            uniforms = uniforms[count:]
            if text.strings is None:
                ids[span] = draws.elements
            else:
                names.strings[ids[span]] = text.text(draws.elements)
            batch.outcomes[span] = outcomes
            batch.rows[span] = gather_outcome_rows(draws, outcomes, width)
            start += count
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
    it: no stack of unitaries is formed. The batch's ids index its
    distinct keys. A dump whose keys act on registers of different sizes,
    or not of 2^ceil(log2 N) labels, is refused.
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
    return ShadowBatch(which.reshape(keys.shape), outcomes, measured,
                       KeyText(register_qubits(n_orbitals), distinct))


def _distinct_tuple_sum(factors) -> np.ndarray:
    """Sum over ordered tuples x of k distinct registers of prod_l
    factors[l][x_l], from k factor arrays (eta, m), without enumerating x:
    D(f_1..f_k) = D(f_1..f_k-1) sum_x f_k(x) - sum_l<k D(.., f_l f_k, ..)
    expands to Moebius inversion over the set partitions of the k slots
    (Rota 1964). At k = 2: (sum_x a_x)(sum_y b_y) - sum_x a_x b_x. Each
    sum runs over the registers in order, from zero."""
    *head, last = factors
    total = np.add.reduce(last, axis=0, initial=0)
    if head:
        total *= _distinct_tuple_sum(head)
        for slot in range(len(head)):
            total -= _distinct_tuple_sum(
                [*head[:slot], head[slot] * last, *head[slot + 1:]])
    return total


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

    def _factors(self, i: int, j: int) -> np.ndarray:
        """The factor of |i><j| on each register, shape (eta, m)."""
        m, eta, _ = self.rows.shape
        factors = np.empty((eta, m), dtype=complex)
        for x in range(eta):
            if (x, j) not in self._scaled:
                self._scaled[x, j] = self._scale * np.conj(self.rows[:, x, j])
            np.multiply(self._scaled[x, j], self.rows[:, x, i], out=factors[x])
        if i == j:
            factors -= 1.0
        return factors

    def values(self, bra_labels, ket_labels, k: int | None = None) -> np.ndarray:
        """Estimator values of every sample, after
        :func:`~fqlab.states.check_labels`: the sum over every ordered
        tuple of k distinct registers of the product of the slot factors,
        each slot's eta factors formed once (:func:`_distinct_tuple_sum`)."""
        _, eta, width = self.rows.shape
        check_labels(bra_labels, ket_labels, eta, width, k)
        return _distinct_tuple_sum([self._factors(i, j)
                                    for i, j in zip(bra_labels, ket_labels)])


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
    """Median of K group means of the estimator over every ordered tuple
    of k distinct registers."""
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
             samples, seed: int, elements):
    """k-RDM elements of an antisymmetric state from one shadow batch.

    Every input is checked before any sample is drawn: the state's
    amplitudes (the sum over register tuples estimates a k-RDM only for an
    antisymmetric state); k, epsilon and delta, by :func:`required_samples`
    on either path; ``samples``, "auto" (that count) or a positive int, its
    batch size by :func:`collect_shadows`; and ``elements``, "all-1rdm"
    (k = 1 only) or one or more (bra, ket) tuples of k labels in 0..N-1.
    Returns the estimator configuration, the batch and the
    :func:`estimate_elements` stream.
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
    if not elements:
        raise ValidationError("the element list holds no rows")
    for bra, ket in elements:
        check_labels(bra, ket, state.eta, state.n_orbitals, k)
    batch = collect_shadows(state, samples, seed)
    return config, batch, estimate_elements(batch, config, elements)
