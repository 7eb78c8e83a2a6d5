"""Shadow protocol: channel inversion, estimators, bounds, twirls."""

import hashlib
from itertools import permutations
import math

from hypothesis import given, strategies as st
import numpy as np
import pytest

from fqlab.cliffords import CliffordRows, table_rows
from fqlab import cliffords, shadows, states
from fqlab.errors import (
    AssumptionViolated,
    BruteForceLimitExceeded,
    EnumerationUnavailable,
    IndexOutOfRange,
    InsufficientSamples,
    NotAntisymmetric,
    ValidationError,
)
from fqlab.rng import derive_rng
from fqlab.shadows import (
    EstimatorConfig,
    _coordinatewise_median,
    collect_shadows,
    estimate_krdm_element,
    gather_outcome_rows,
    read_out,
    required_samples,
    samples_from_keys,
    variance_bound,
)
from fqlab.states import (
    FirstQuantizedState,
    contract_registers,
    exact_krdm_element,
    sample_registers,
    slater_oracle,
)

from conftest import (
    basis_state,
    exhaustive_estimator_mean,
    random_antisymmetric_state,
    random_orthonormal,
    refuses,
    single_shot_values,
    snapshot_term_estimate,
    traced_peak,
    twirl_deviations,
    twirl_identity_check,
)

PAULI_Z = np.diag([1.0, -1.0]).astype(complex)
P0 = np.diag([1.0, 0.0]).astype(complex)


def identity_rows(n, outcomes):
    """Outcome rows of identity Cliffords measured at ``outcomes``."""
    return np.eye(2 ** n, dtype=complex)[list(outcomes)]


class TestRequiredSamples:
    def test_reference_value_three_sig_figs(self):
        # 64 e^3 ln(80) (2 + 2e) * 2 * 100, evaluated independently
        hand = 64 * math.e ** 3 * math.log(80) * 1 * (2 + 2 * math.e) * 2 / 0.1 ** 2
        got = required_samples(4, 1, 2, 0.1, 0.05)
        assert got == math.ceil(hand)
        assert got == pytest.approx(8.38e6, rel=5e-3)

    def test_quadratic_epsilon_scaling(self):
        coarse = required_samples(4, 1, 2, 0.2, 0.05)
        fine = required_samples(4, 1, 2, 0.1, 0.05)
        assert fine == pytest.approx(4 * coarse, rel=1e-6)

    def test_linear_eta_scaling_at_k1(self):
        assert (required_samples(4, 1, 4, 0.1, 0.05)
                == pytest.approx(2 * required_samples(4, 1, 2, 0.1, 0.05), rel=1e-6))

    def test_monotonicity(self):
        base = required_samples(8, 1, 2, 0.1, 0.05)
        assert required_samples(16, 1, 2, 0.1, 0.05) > base
        assert required_samples(8, 2, 4, 0.1, 0.05) > base
        assert required_samples(8, 1, 2, 0.1, 0.01) > base


class TestVarianceBound:
    def test_reference_value(self):
        assert variance_bound(1, 2) == pytest.approx(
            math.e ** 3 * 2 * (2 + 2 * math.e), rel=1e-12)
        assert variance_bound(1, 2) == pytest.approx(298.8, abs=0.1)

    def test_doubling_eta_doubles_bound_at_k1(self):
        assert variance_bound(1, 8) == pytest.approx(2 * variance_bound(1, 4))

    def test_domain(self):
        variance_bound(2, 4)  # eta = 2k allowed
        with pytest.raises(AssumptionViolated):
            variance_bound(2, 3)


class TestSnapshotTerm:
    def test_identity_clifford_diagonal_hit(self):
        rows = identity_rows(2, (1,))
        assert snapshot_term_estimate(rows, (1,), (1,), (1,)) == pytest.approx(4.0)

    def test_identity_clifford_diagonal_miss(self):
        rows = identity_rows(2, (2,))
        assert snapshot_term_estimate(rows, (1,), (1,), (1,)) == pytest.approx(-1.0)

    def test_register_index_checked(self):
        rows = identity_rows(1, (0,))
        with pytest.raises(IndexOutOfRange):
            snapshot_term_estimate(rows, (2,), (0,), (0,))

    def test_channel_inversion_exact_single_register(self):
        # average over all 24 Cliffords x 2 outcomes reproduces <i|rho|j>
        rng = np.random.default_rng(3)
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        table = table_rows(1).unitaries()
        for i in range(2):
            for j in range(2):
                acc = 0.0
                for u in table:
                    probs = np.abs(u @ psi) ** 2
                    for b in range(2):
                        term = snapshot_term_estimate(u[[b]], (1,), (i,), (j,))
                        acc += probs[b] * term
                acc /= len(table)
                # tr[rho |i><j|] = <j|rho|i>
                assert acc == pytest.approx(rho[j, i], abs=1e-10)

    def test_uninvolved_register_contributes_unity(self):
        # tr[M^{-1}(U†|b><b|U)] = 1, so adding registers to the sample
        # must not change the factorized estimate
        rng = derive_rng(8, "extra")
        state = random_antisymmetric_state(4, 2, seed=5)
        batch = collect_shadows(state, 10, seed=77)
        for rows in batch.rows:
            one = snapshot_term_estimate(rows, (1,), (0,), (1,))
            row = rows[1]
            trace_inverted = (row.size + 1) * np.vdot(row, row) - row.size
            assert trace_inverted == pytest.approx(1.0, abs=1e-10)
            assert one == snapshot_term_estimate(rows, (1,), (0,), (1,))


class TestEstimator:
    def test_exhaustive_mean_matches_exact(self):
        # every 1-RDM element at seed 1, and at k = 2 the four ordered
        # label pairs, where the estimator sums both register orders
        pairs = [(0, 1), (1, 0)]
        cases = [(1, (i,), (j,)) for i in range(2) for j in range(2)] + [
            (seed, bra, ket) for seed in (1, 2, 3) for bra in pairs for ket in pairs]
        for seed, bra, ket in cases:
            state = random_antisymmetric_state(2, 2, seed=seed)
            mean = exhaustive_estimator_mean(state, bra, ket)
            exact = exact_krdm_element(state, bra, ket)
            assert abs(mean - exact) < 1e-10

    def test_exhaustive_mean_on_a_padded_register(self):
        # N = 3 in registers of 4 labels: rows of width 3 invert the
        # channel of the 4-label register
        state = slater_oracle(random_orthonormal(3, 1, seed=2))
        for i in range(3):
            for j in range(3):
                mean = exhaustive_estimator_mean(state, (i,), (j,))
                exact = exact_krdm_element(state, (i,), (j,))
                assert abs(mean - exact) < 1e-10

    @pytest.mark.parametrize("bra,ket", [((2,), (0,)), ((0,), (-1,))])
    def test_exhaustive_mean_refuses_labels_outside_register(self, bra, ket):
        state = random_antisymmetric_state(2, 2, seed=1)
        with pytest.raises(IndexOutOfRange):
            exhaustive_estimator_mean(state, bra, ket)

    def test_exhaustive_mean_refused_before_allocating(self, monkeypatch):
        # N = 4, eta = 2: 11520^2 Clifford pairs, about 68 GB of rows
        def indices(*args, **kwargs):
            raise AssertionError("Clifford tuples built before the size check")
        monkeypatch.setattr(np, "indices", indices)
        state = random_antisymmetric_state(4, 2, seed=1)
        with pytest.raises(BruteForceLimitExceeded):
            exhaustive_estimator_mean(state, (0,), (1,))

    def test_exhaustive_mean_register_relabeling(self):
        state = random_antisymmetric_state(2, 2, seed=6)
        swapped_tensor = -np.swapaxes(state.tensor, 0, 1)
        relabeled = type(state)(2, 2, swapped_tensor)
        a = exhaustive_estimator_mean(state, (0,), (1,))
        b = exhaustive_estimator_mean(relabeled, (0,), (1,))
        assert abs(a - b) < 1e-10

    def test_statistical_mean_and_variance(self):
        eye = np.eye(4)
        state = slater_oracle([eye[:, 0], eye[:, 1]])
        samples = collect_shadows(state, 20_000, seed=42)
        bound = variance_bound(1, 2)
        for (i, j) in [(0, 0), (0, 1), (2, 2)]:
            values = single_shot_values(samples, (i,), (j,))
            exact = exact_krdm_element(state, (i,), (j,))
            var = float(np.mean(np.abs(values) ** 2) - abs(np.mean(values)) ** 2)
            assert var <= bound
            for component in (np.real, np.imag):
                comp = component(values)
                sigma = comp.std(ddof=1) / math.sqrt(len(comp)) + 1e-12
                assert abs(comp.mean() - component(exact)) < 5 * sigma

    @pytest.mark.parametrize("n,eta,bra,ket", [
        (4, 4, (0, 2), (1, 3)),
        (8, 5, (0, 5), (7, 3)),
        (8, 5, (3, 3), (3, 6)),
        (8, 5, (0, 2, 4), (1, 3, 5)),
    ], ids=["4-4-k2", "8-5-k2", "8-5-k2-repeated-labels", "8-5-k3"])
    def test_values_are_the_sum_over_ordered_register_tuples(self, n, eta,
                                                              bra, ket):
        # single_shot_values over the batch rows equals the per-sample sum
        # of snapshot_term_estimate over every ordered tuple of distinct
        # registers, enumerated
        state = random_antisymmetric_state(n, eta, seed=15)
        batch = collect_shadows(state, 50, seed=4)
        values = single_shot_values(batch, bra, ket)
        tuples = [tuple(x + 1 for x in tup)
                  for tup in permutations(range(eta), len(bra))]
        for rows, value in zip(batch.rows, values):
            ref = sum(snapshot_term_estimate(rows, tup, bra, ket)
                      for tup in tuples)
            assert value == pytest.approx(ref, abs=1e-12)

    def test_median_of_means_path(self):
        state = random_antisymmetric_state(4, 2, seed=9)
        samples = collect_shadows(state, 4000, seed=1)
        config = EstimatorConfig.from_sample_count(1, 0.3, 0.1, 4000)
        est = estimate_krdm_element(samples, config, (0,), (0,))
        exact = exact_krdm_element(state, (0,), (0,))
        assert abs(est - exact) < 0.3

    def test_hermiticity_of_paired_estimates(self):
        state = random_antisymmetric_state(4, 2, seed=10)
        samples = collect_shadows(state, 500, seed=2)
        config = EstimatorConfig.from_sample_count(1, 0.5, 0.2, 500)
        upper = estimate_krdm_element(samples, config, (0,), (2,))
        lower = estimate_krdm_element(samples, config, (2,), (0,))
        assert upper == pytest.approx(lower.conjugate(), abs=1e-12)

    def test_insufficient_samples(self):
        state = random_antisymmetric_state(4, 2, seed=11)
        samples = collect_shadows(state, 10, seed=3)
        config = EstimatorConfig(k=1, epsilon=0.1, delta=0.05,
                                 groups=4, group_size=5)
        with pytest.raises(InsufficientSamples):
            estimate_krdm_element(samples, config, (0,), (0,))

    def test_coordinatewise_median_lower_tie(self):
        values = np.array([1 + 4j, 2 + 3j, 3 + 2j, 4 + 1j])
        assert _coordinatewise_median(values) == 2 + 2j


class TestLabelChecks:
    """Every estimator takes eta from its batch or state and k from the
    label length, and refuses labels that do not fit them."""

    @pytest.fixture(scope="class")
    def estimators(self):
        state = random_antisymmetric_state(2, 2, seed=1)  # 1-qubit registers
        batch = collect_shadows(state, 60, seed=1)
        config = EstimatorConfig.from_sample_count(1, 0.5, 0.2, 60)
        return {
            "single_shot_values":
                lambda bra, ket: single_shot_values(batch, bra, ket),
            "estimate_krdm_element":
                lambda bra, ket: estimate_krdm_element(batch, config, bra, ket),
            "exhaustive_estimator_mean":
                lambda bra, ket: exhaustive_estimator_mean(state, bra, ket),
        }

    @pytest.mark.parametrize("name", ["single_shot_values",
                                      "estimate_krdm_element",
                                      "exhaustive_estimator_mean"])
    @pytest.mark.parametrize("bra,ket,error", [
        ((0,), (0, 1), ValidationError),
        ((0, 1, 0), (0, 1, 0), ValidationError),
        ((), (), ValidationError),
        ((0,), (-1,), IndexOutOfRange),
        ((2,), (0,), IndexOutOfRange),
        ((0.0,), (0,), IndexOutOfRange),
        ((True,), (0,), IndexOutOfRange),
    ], ids=["unequal-lengths", "longer-than-eta", "empty", "negative",
            "beyond-register", "float", "bool"])
    def test_refused(self, estimators, name, bra, ket, error):
        with pytest.raises(error):
            estimators[name](bra, ket)

    def test_order_other_than_config_k_refused(self):
        eye = np.eye(4)
        filled = slater_oracle([eye[:, a] for a in range(4)])
        batch = collect_shadows(filled, 100, seed=1)
        config = EstimatorConfig.from_sample_count(2, 0.5, 0.2, 100)
        with pytest.raises(ValidationError, match="k = 2"):
            estimate_krdm_element(batch, config, (0,), (0,))


class TestReadOut:
    @pytest.fixture
    def state(self):
        return random_antisymmetric_state(4, 2, seed=3)

    @pytest.fixture
    def drawn(self, monkeypatch):
        """Sample counts asked of collect_shadows, which draws none."""
        counts = []

        def collect(state, m, seed):
            counts.append(m)
            return collect_shadows(state, 0, seed)
        monkeypatch.setattr(shadows, "collect_shadows", collect)
        return counts

    @pytest.mark.parametrize("k,elements", [
        (1, [((0,), (0,)), ((0,), (4,))]),
        (1, [((0,), (0,)), ((0, 1), (0, 1))]),
        (2, "all-1rdm"),
    ], ids=["label-beyond-register", "order-not-k", "all-1rdm-at-k2"])
    def test_elements_checked_before_sampling(self, state, drawn, k,
                                              elements):
        with pytest.raises(ValidationError):
            read_out(state, k, 0.5, 0.2, 200, 1, elements)
        assert drawn == []

    @pytest.mark.parametrize("elements", [[], ()], ids=["list", "tuple"])
    def test_no_elements_refused_before_sampling(self, state, drawn,
                                                 elements):
        with pytest.raises(ValidationError, match="holds no rows"):
            read_out(state, 1, 0.5, 0.2, 200, 1, elements)
        assert drawn == []

    @pytest.mark.parametrize("samples", ["abc", "200", 0, -3, 2.5, True])
    def test_samples_auto_or_positive_integer(self, state, drawn, samples):
        with pytest.raises(ValidationError, match="samples"):
            read_out(state, 1, 0.5, 0.2, samples, 1, "all-1rdm")
        assert drawn == []

    def test_auto_takes_the_required_count(self, state, drawn):
        config, _, _ = read_out(state, 1, 0.5, 0.2, "auto", 1, "all-1rdm")
        assert drawn == [required_samples(4, 1, 2, 0.5, 0.2)]
        assert config == EstimatorConfig.from_sample_count(1, 0.5, 0.2,
                                                           drawn[0])

    @pytest.mark.parametrize("element", [((0,), (7,)), ((5,), (5,))],
                             ids=["ket-7", "bra-ket-5"])
    def test_padding_labels_refused(self, drawn, element):
        # N = 5 orbitals in registers of 2^3: labels 5..7 are padding
        state = random_antisymmetric_state(5, 2, seed=4)
        with pytest.raises(IndexOutOfRange, match=r"0\.\.4"):
            read_out(state, 1, 0.5, 0.2, 200, 1, [((0,), (0,)), element])
        assert drawn == []

    def test_product_state_refused(self, drawn):
        product = basis_state(2, 4, (0, 1))
        with pytest.raises(NotAntisymmetric):
            read_out(product, 1, 0.5, 0.2, 200, 1, "all-1rdm")
        assert drawn == []

    def test_antisymmetric_tensor_built_by_hand_read_out(self, state):
        by_hand = FirstQuantizedState(2, 4, state.tensor.copy())
        _, batch, readings = read_out(by_hand, 1, 0.5, 0.2, 200, 1, "all-1rdm")
        _, expected, _ = read_out(state, 1, 0.5, 0.2, 200, 1, "all-1rdm")
        assert np.array_equal(batch.outcomes, expected.outcomes)
        assert len(list(readings)) == 16

    def test_readings_match_the_estimator(self, state):
        config, batch, readings = read_out(state, 1, 0.5, 0.2, 200, 4,
                                           [((0,), (1,)), ((2,), (2,))])
        assert len(batch) == 200
        for (bra, ket), (estimate, values) in readings:
            assert estimate == estimate_krdm_element(batch, config, bra, ket)
            assert np.array_equal(values, single_shot_values(batch, bra, ket))


    def test_pair_readings_match_the_estimator_at_eta_4(self):
        # the 16 pair elements of criterion 2 on the filled eta = 4 state
        state = slater_oracle(random_orthonormal(4, 4, seed=6))
        pairs = [(0, 1), (0, 2), (1, 3), (2, 3)]
        elements = [(bra, ket) for bra in pairs for ket in pairs]
        config, batch, readings = read_out(state, 2, 0.5, 0.2, 400, 8, elements)
        readings = list(readings)
        assert [element for element, _ in readings] == elements
        for (bra, ket), (estimate, values) in readings:
            assert estimate == estimate_krdm_element(batch, config, bra, ket)
            assert values.tobytes() == single_shot_values(batch, bra,
                                                          ket).tobytes()


class TestEstimatorConfig:
    def test_auto_formulas(self):
        m = required_samples(4, 1, 2, 0.1, 0.05)
        config = EstimatorConfig.from_sample_count(1, 0.1, 0.05, m)
        assert config.groups == math.ceil(8 * math.log(1 / 0.05))
        assert config.group_size == m // config.groups

    def test_from_sample_count_drops_remainder(self):
        config = EstimatorConfig.from_sample_count(1, 0.1, 0.05, 1000)
        assert config.groups * config.group_size <= 1000

    def test_too_few_samples(self):
        with pytest.raises(InsufficientSamples):
            EstimatorConfig.from_sample_count(1, 0.1, 0.05, 10)

    @pytest.mark.parametrize("epsilon", [-1.0, 0.0, 7.0, math.nan])
    def test_epsilon_outside_unit_interval_refused(self, epsilon):
        with pytest.raises(ValidationError, match="epsilon"):
            EstimatorConfig.from_sample_count(1, epsilon, 0.05, 1000)


class TestCollect:
    def test_zero_samples(self):
        state = random_antisymmetric_state(4, 2, seed=12)
        assert len(collect_shadows(state, 0, seed=1)) == 0

    def test_batch_beyond_budget_refused_before_allocating(self, monkeypatch):
        # 2^22 samples of 2 x 4 outcome-row entries: twice the budget
        state = random_antisymmetric_state(4, 2, seed=12)

        def empty(*args, **kwargs):
            raise AssertionError("batch allocated before the size check")
        monkeypatch.setattr(np, "empty", empty)
        with pytest.raises(BruteForceLimitExceeded):
            collect_shadows(state, 2 ** 22, 0)

    def test_deterministic(self):
        state = random_antisymmetric_state(4, 2, seed=13)
        a = collect_shadows(state, 40, seed=5)
        b = collect_shadows(state, 40, seed=5)
        keys = lambda batch: (batch.keys.tolist(), batch.outcomes.tolist())
        assert keys(a) == keys(b)

    def test_first_chunks_do_not_depend_on_the_batch_size(self):
        # chunk c draws from its own stream: the first two chunks of a
        # three-chunk batch are a two-chunk batch
        for eta in (2, 4):
            state = random_antisymmetric_state(4, eta, seed=16)
            long = collect_shadows(state, 9001, 17)
            short = collect_shadows(state, 8192, 17)
            assert long.keys[:8192].tolist() == short.keys.tolist()
            assert np.array_equal(long.outcomes[:8192], short.outcomes)
            assert long.rows[:8192].tobytes() == short.rows.tobytes()

    @pytest.mark.parametrize("n_orbitals,eta", [(2, 2), (3, 3), (4, 4)])
    def test_table_registers_form_no_unitary(self, monkeypatch, n_orbitals,
                                             eta):
        # at n <= 2 every block reads rows from the shared table
        def dense(self):
            raise AssertionError("a stack of unitaries was formed")
        state = random_antisymmetric_state(n_orbitals, eta, seed=3)
        expected = collect_shadows(state, 600, seed=5)
        monkeypatch.setattr(CliffordRows, "unitaries", dense)
        batch = collect_shadows(state, 600, seed=5)
        assert batch.rows.tobytes() == expected.rows.tobytes()

    @pytest.mark.parametrize("n_orbitals,eta", [(2, 2), (4, 2), (4, 4)])
    def test_table_registers_store_no_key_text(self, monkeypatch, n_orbitals,
                                               eta):
        # at n <= 2 a batch holds each draw's table index: no object
        # array, and no key string is formed until the keys are read
        def text(*args):
            raise AssertionError("key text formed while collecting")
        state = random_antisymmetric_state(n_orbitals, eta, seed=3)
        monkeypatch.setattr(cliffords, "table_key", text)
        batch = collect_shadows(state, 600, seed=5)
        monkeypatch.undo()
        arrays = [v for v in vars(batch).values() if isinstance(v, np.ndarray)]
        assert len(arrays) == 3 and all(a.dtype != object for a in arrays)
        assert batch.names.strings is None
        n = state.qubits_per_register
        assert batch.keys.tolist() == [[f"t{n}:{idx}" for idx in row]
                                       for row in batch.ids.tolist()]

    @pytest.mark.parametrize("n_orbitals,eta", [(4, 2), (3, 3), (4, 4)])
    @pytest.mark.parametrize("block", ["one-sample", "whole-chunk"])
    def test_batch_does_not_depend_on_block_size(self, monkeypatch,
                                                 n_orbitals, eta, block):
        state = random_antisymmetric_state(n_orbitals, eta, seed=9)
        default = collect_shadows(state, 4500, seed=11)  # two chunks
        # a budget of 1 gives blocks of one sample; 2^40 entries hold
        # any chunk's per-sample arrays in one block
        budget = 1 if block == "one-sample" else 2 ** 40
        monkeypatch.setattr(shadows, "_BLOCK_AMPLITUDES", budget)
        other = collect_shadows(state, 4500, seed=11)
        assert default.keys.tolist() == other.keys.tolist()
        assert np.array_equal(default.outcomes, other.outcomes)
        assert default.rows.tobytes() == other.rows.tobytes()

    @pytest.mark.parametrize("n_orbitals,rotate", [(4, True), (3, False)])
    def test_born_frequencies_match_probabilities(self, n_orbitals, rotate):
        # fixed register unitaries; N = 3 pads each register with a
        # label of probability zero, which must never be drawn
        state = random_antisymmetric_state(n_orbitals, 2, seed=31)
        units = np.stack([random_orthonormal(4, 4, seed=s) if rotate
                          else np.eye(4) for s in (1, 2)])
        units = units[..., :n_orbitals]  # the columns of the stored labels
        probs = np.abs(contract_registers(state.tensor, units)) ** 2
        draws = 20_000
        outcomes = sample_registers(
            state.tensor, derive_rng(3, "born").random(draws),
            CliffordRows.of_stack(units).select(
                np.broadcast_to(np.arange(2), (draws, 2))))
        counts = np.bincount(np.ravel_multi_index(outcomes.T, (4, 4)),
                             minlength=16)
        expect = draws * probs.reshape(-1)
        sigma = np.sqrt(expect * (1 - probs.reshape(-1)))
        assert np.all(np.abs(counts - expect) <= 5 * sigma + 1e-9)

    def test_single_register_marginal_recovered(self):
        # empirical mean of (2^n+1) U†|b><b|U - I approximates the
        # register-1 reduced density matrix
        state = random_antisymmetric_state(4, 2, seed=14)
        marginal = np.tensordot(state.tensor, state.tensor.conj(), axes=([1], [1]))
        m = 30_000
        batch = collect_shadows(state, m, seed=21)
        dim = 4
        acc = np.zeros((dim, dim), dtype=complex)
        for row in batch.rows[:, 0]:
            acc += (dim + 1) * np.outer(row.conj(), row) - np.eye(dim)
        acc /= m
        # single-shot elementwise variance is O(1); 5 sigma with sigma ~ sqrt(var/m)
        scale = 5 * math.sqrt(2 * dim / m)
        assert np.max(np.abs(acc - marginal)) < scale


class TestStreamPins:
    """SHA-256 of the keys, outcomes and rows of fixed batches.

    A change in how the random streams map to Clifford draws, outcomes or
    rows fails here, and has to bump ``fqlab.__version__`` (the manifests'
    tool_version), since recorded runs would no longer replay.
    Estimates are not pinned: their last bits depend on the CPU's SIMD
    path.
    """

    PINS = {
        (4, 2): ("b24dfd839d419e1f833ed355a9f53d256cea448cf8eb73e030e2ce7a4ed7952c",
                 "313c92e803e756567fbff28d2d9fa0d5f5c1e82f8597feda3cce2d1f4d884819",
                 "e2c262ef2d7f46e97dc01774ecd6960479b9eef2c3ad6e6943a83f44f328743e"),
        (4, 4): ("6810bfd2aa2625ff43cbd0da99d16f86ba54cc506ef3a810940d4754e31e18cc",
                 "e010fc41dad2039219e5eb6bfea4bfdda87efd03fd59bf165a6dd3d03108dd27",
                 "8ad920c0f6ecf58be9597d9494858ee7f12e59f9d2b735a4f0592525f32a2570"),
        (8, 2): ("81a180de5242329d086fdd2308cbe2e9e833ef6326af86e26f8708f999ec4350",
                 "08578296bc2dba5486714847cc6f2e29a8905e699bbafec5883577fefae3d316",
                 "9b3a0699b9de208861435ba39e690d9fac299e9f0120a4c52a61353885597f65"),
        (2, 2): ("30fbc1f1a1a89a2c4c11a6582d417ce52f1e628596a03b5791a08d6ad2b7a199",
                 "a55412e78ca96491955052de30b781ef6efbb7ef5804c682dfb1a2b2dbfffea6",
                 "7e564d81a93eacf99ce529899a15ef88be45f10833be21bf5514172af992e702"),
    }

    # 2000 samples at N = 4, eta = 2: one chunk of several blocks
    BLOCK_PINS = {
        (4, 2): ("54a2167e38954d9f91e28621314481c2c5a0292560024d1156b7e67598e83cb1",
                 "772c458149b715f37b10ca3153550703f351f8a4c8ba313070dd57b30ed2d86c",
                 "be4b65934c3294621647a6e6d735d0b56084a9af444c13aa26ecf58522d833d7"),
    }

    # N = 5 in registers of 8 labels: recorded when rows held all 8
    # labels; the rows pinned are their first N entries, as stored now
    PADDED_PINS = {
        (5, 2): ("81a180de5242329d086fdd2308cbe2e9e833ef6326af86e26f8708f999ec4350",
                 "87bed986373e2aa170a0e26069bb825fb0197db8ccd19259d111abca3f8c59d5",
                 "9095df2c84f9d41faa3f23783e52513afeeae84fa09bb6010054e4aad7150a0e"),
        (5, 3): ("7b1ce22dbb3e90216b461dc8e635b49ff02d1c805735b36e623770c71a72ade6",
                 "abfae5cd07f47163dc3b8d5e6208207be84662a943f2a1515d360f04a3fa938b",
                 "8e22d06cc806d51ebd77d1e8e4e03294cc1ac0ba1a53efa036b835f6a57caf78"),
    }

    @pytest.mark.parametrize("n_orbitals,eta", list(PADDED_PINS))
    def test_padded_registers_are_pinned(self, n_orbitals, eta):
        state = slater_oracle(random_orthonormal(n_orbitals, eta, seed=9))
        batch = collect_shadows(state, 300, seed=11)
        assert batch.rows.shape == (300, eta, n_orbitals)
        assert self.digests(batch) == self.PADDED_PINS[n_orbitals, eta]

    @staticmethod
    def digests(batch):
        keys = "\n".join("|".join(row) for row in batch.keys.tolist())
        return tuple(hashlib.sha256(data).hexdigest() for data in (
            keys.encode(), batch.outcomes.astype("<i8").tobytes(),
            batch.rows.astype("<c16").tobytes()))

    @pytest.mark.parametrize("n_orbitals,eta", list(PINS))
    def test_keys_outcomes_and_rows_are_pinned(self, n_orbitals, eta):
        state = random_antisymmetric_state(n_orbitals, eta, seed=9)
        batch = collect_shadows(state, 300, seed=11)
        assert self.digests(batch) == self.PINS[n_orbitals, eta]

    @pytest.mark.parametrize("n_orbitals,eta", list(BLOCK_PINS))
    def test_several_blocks_are_pinned(self, n_orbitals, eta):
        state = random_antisymmetric_state(n_orbitals, eta, seed=9)
        batch = collect_shadows(state, 2000, seed=11)
        assert self.digests(batch) == self.BLOCK_PINS[n_orbitals, eta]


class TestGatherOutcomeRows:
    @given(batch=st.integers(1, 4), eta=st.integers(1, 3),
           dim=st.sampled_from([2, 4, 8]), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_loop(self, batch, eta, dim, seed):
        rng = np.random.default_rng(seed)
        shape = (batch, eta, dim, dim)
        unitaries = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        outcomes = rng.integers(0, dim, size=(batch, eta))
        rows = gather_outcome_rows(CliffordRows.of_stack(unitaries), outcomes)
        assert rows.shape == (batch, eta, dim)
        for b in range(batch):
            for x in range(eta):
                assert np.array_equal(rows[b, x], unitaries[b, x, outcomes[b, x]])

    @given(tuples=st.integers(1, 3), outcomes=st.integers(1, 3),
           eta=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
    def test_broadcast_pairs_every_tuple_with_every_outcome(
            self, tuples, outcomes, eta, seed):
        rng = np.random.default_rng(seed)
        unitaries = rng.normal(size=(tuples, eta, 4, 4))
        labels = rng.integers(0, 4, size=(outcomes, eta))
        draws = CliffordRows.of_stack(unitaries)
        rows = gather_outcome_rows(draws.select(draws.elements[:, None]),
                                   labels[None])
        assert rows.shape == (tuples, outcomes, eta, 4)
        for c in range(tuples):
            for o in range(outcomes):
                for x in range(eta):
                    assert np.array_equal(rows[c, o, x],
                                          unitaries[c, x, labels[o, x]])


class TestTwirls:
    def test_identity_input_two_fold(self):
        dev2, _ = twirl_deviations(1, np.eye(2), np.eye(2), np.eye(2))
        assert dev2 < 1e-12
        # A = I: per-outcome average is (I + 2I)/(2*3) = I/2
        table = table_rows(1).unitaries()
        acc = sum(np.outer(u.conj().T[:, 0], u.conj().T[:, 0].conj())
                  for u in table) / len(table)
        assert np.max(np.abs(acc - np.eye(2) / 2)) < 1e-12

    def test_traceless_input(self):
        table = table_rows(1).unitaries()
        acc = np.zeros((2, 2), dtype=complex)
        for u in table:
            ux = u.conj().T[:, 0]
            acc += np.outer(ux, ux.conj()) * (ux.conj() @ PAULI_Z @ ux)
        acc /= len(table)
        assert np.max(np.abs(acc - PAULI_Z / 6)) < 1e-12

    def test_three_fold_projector_case(self):
        # B = C = |0><0|: closed form (2I + 4 P0)/24
        table = table_rows(1).unitaries()
        acc = np.zeros((2, 2), dtype=complex)
        for u in table:
            ux = u.conj().T[:, 0]
            amp = ux.conj() @ P0 @ ux
            acc += np.outer(ux, ux.conj()) * amp * amp
        acc /= len(table)
        expected = (2 * np.eye(2) + 4 * P0) / 24
        assert np.max(np.abs(acc - expected)) < 1e-12

    def test_full_check_random_non_traceless(self, rng):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert twirl_identity_check(1, a, b, c, tol=1e-10)

    def test_two_qubit_group_twirl(self, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        c = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert twirl_identity_check(2, a, b, c, tol=1e-9)

    def test_enumeration_limit(self):
        with pytest.raises(EnumerationUnavailable):
            twirl_identity_check(3, np.eye(8), np.eye(8), np.eye(8))


class TestLemmaBound:
    def test_projector_products_bounded_by_permutation_count(self):
        # <P_1 x ... x P_k x I> <= (eta-k)!/eta! on antisymmetric states
        for eta, k, n_orbitals in [(2, 1, 4), (2, 2, 4), (3, 2, 4)]:
            state = random_antisymmetric_state(n_orbitals, eta, seed=eta * 7 + k)
            bound = math.factorial(eta - k) / math.factorial(eta)
            for seed in range(5):
                frame = random_orthonormal(state.register_dim, k, seed=seed)
                value = state.tensor
                # contract projector |phi_i><phi_i| into register i
                work = state.tensor
                for i in range(k):
                    phi = frame[:, i]
                    amp = np.tensordot(phi.conj(), work, axes=([0], [i]))
                    work = np.moveaxis(np.multiply.outer(phi, amp), 0, i)
                value = np.vdot(state.tensor, work).real
                assert value <= bound + 1e-10
                assert value >= -1e-10


class TestSampleDumpReplay:
    def test_rebuilt_samples_give_identical_estimates(self):
        state = random_antisymmetric_state(4, 2, seed=23)
        samples = collect_shadows(state, 300, seed=6)
        rows = list(zip(samples.keys.tolist(), samples.outcomes.tolist()))
        rebuilt = samples_from_keys(rows, 4)
        config = EstimatorConfig.from_sample_count(1, 0.5, 0.2, 300)
        for (i, j) in [(0, 0), (1, 2)]:
            a = estimate_krdm_element(samples, config, (i,), (j,))
            b = estimate_krdm_element(rebuilt, config, (i,), (j,))
            assert a == b

    @pytest.mark.parametrize("n_orbitals,prefix", [(2, "t1:"), (4, "t2:"),
                                                   (8, "c3:")])
    def test_every_key_kind_round_trips(self, n_orbitals, prefix):
        state = random_antisymmetric_state(n_orbitals, 2, seed=23)
        samples = collect_shadows(state, 300, seed=6)
        assert all(key.startswith(prefix) for key in samples.keys.flat)
        rebuilt = samples_from_keys(zip(samples.keys, samples.outcomes),
                                    n_orbitals)
        assert rebuilt.keys.tolist() == samples.keys.tolist()
        assert np.array_equal(rebuilt.outcomes, samples.outcomes)
        assert rebuilt.rows.tobytes() == samples.rows.tobytes()
        config = EstimatorConfig.from_sample_count(1, 0.5, 0.2, 300)
        for (i, j) in [(0, 0), (1, 0), (0, n_orbitals - 1)]:
            a = estimate_krdm_element(samples, config, (i,), (j,))
            b = estimate_krdm_element(rebuilt, config, (i,), (j,))
            assert a == b

    def test_dump_budgeted_as_the_collector_budgets(self, monkeypatch):
        # a budget of 1200 entries holds 150 samples of 2 x 4 outcome rows
        monkeypatch.setattr(states, "BRUTE_FORCE_AMPLITUDES", 1200)
        state = random_antisymmetric_state(4, 2, seed=23)
        samples = collect_shadows(state, 150, seed=6)
        rows = list(zip(samples.keys.tolist(), samples.outcomes.tolist()))
        assert samples_from_keys(rows, 4).rows.tobytes() == samples.rows.tobytes()
        with pytest.raises(BruteForceLimitExceeded, match="151 samples"):
            collect_shadows(state, 151, seed=6)
        with pytest.raises(BruteForceLimitExceeded, match="151 samples"):
            samples_from_keys(rows + rows[:1], 4)

    def test_rows_of_the_stored_labels_round_trip(self):
        # N = 5 in registers of 8 labels: outcomes range over all 8 labels,
        # rows over the 5 orbitals
        state = random_antisymmetric_state(5, 2, seed=23)
        samples = collect_shadows(state, 300, seed=6)
        assert samples.outcomes.max() >= 5
        rows = list(zip(samples.keys.tolist(), samples.outcomes.tolist()))
        rebuilt = samples_from_keys(rows, 5)
        assert rebuilt.rows.tobytes() == samples.rows.tobytes()
        config = EstimatorConfig.from_sample_count(1, 0.5, 0.2, 300)
        for (i, j) in [(0, 0), (1, 4)]:
            a = estimate_krdm_element(samples, config, (i,), (j,))
            b = estimate_krdm_element(rebuilt, config, (i,), (j,))
            assert a == b

    @pytest.mark.parametrize("n_orbitals", [0, 4, 9])
    def test_orbitals_not_on_the_keys_registers_refused(self, n_orbitals):
        # the keys act on 3-qubit registers, which hold N = 5..8
        state = random_antisymmetric_state(5, 2, seed=23)
        samples = collect_shadows(state, 5, seed=6)
        rows = list(zip(samples.keys.tolist(), samples.outcomes.tolist()))
        with pytest.raises(ValidationError,
                           match=f"{n_orbitals} orbitals do not take 8-label"):
            samples_from_keys(rows, n_orbitals)

    @pytest.mark.parametrize("outcome", [-1, 4])
    def test_outcome_outside_the_register_refused(self, outcome):
        # a negative outcome would read a row from the end of the unitary
        state = random_antisymmetric_state(4, 2, seed=23)
        samples = collect_shadows(state, 5, seed=6)
        rows = list(zip(samples.keys.tolist(), samples.outcomes.tolist()))
        rows[2][1][0] = outcome
        with pytest.raises(IndexOutOfRange):
            samples_from_keys(rows, 4)

    def test_working_set_is_the_rows(self):
        # at n = 3 almost every key is distinct: a stack of their unitaries
        # would hold 8 times the rows (about 9 times in all)
        state = random_antisymmetric_state(8, 2, seed=23)
        samples = collect_shadows(state, 300, seed=6)
        rows = list(zip(samples.keys.tolist(), samples.outcomes.tolist()))
        assert traced_peak(lambda: samples_from_keys(rows, 8)) <= 3 * samples.rows.nbytes

    @pytest.mark.parametrize("outcomes", [[0, 0], [0, 3]])
    def test_mixed_register_sizes_refused(self, outcomes):
        with pytest.raises(ValidationError,
                           match="mixes register sizes: key 't2:0' .* key 't1:0'"):
            samples_from_keys([(["t1:0", "t2:0"], outcomes)], 2)

    def test_empty_dump_refused(self):
        # no row carries eta or the register size to build an empty batch
        with pytest.raises(ValidationError, match="sample dump is empty"):
            samples_from_keys([], 2)


class TestHeadlineVarianceProperty:
    def test_variance_bounded_on_five_random_states(self):
        # headline property: empirical single-shot Var(d) <= bound on
        # every random antisymmetric state (N=4, eta=2, k=1); the
        # acceptance module repeats this at the full 1e5-sample size
        bound = variance_bound(1, 2)
        for seed in range(5):
            state = random_antisymmetric_state(4, 2, seed=400 + seed)
            samples = collect_shadows(state, 30_000, seed=seed)
            worst = 0.0
            for i in range(4):
                for j in range(4):
                    values = single_shot_values(samples, (i,), (j,))
                    var = float(np.mean(np.abs(values) ** 2)
                                - abs(np.mean(values)) ** 2)
                    worst = max(worst, var)
            assert worst <= bound


@pytest.mark.parametrize("call,error,message", [
    (lambda: required_samples(0, 1, 2, 0.5, 0.1), ValidationError,
     "n_orbitals must be positive, got 0"),
    (lambda: collect_shadows(random_antisymmetric_state(4, 2, seed=1), -1, 0),
     ValidationError, "sample count must be nonnegative"),
    (lambda: samples_from_keys([(["t2:0", "t2:1"], [0])], 4), ValidationError,
     "clifford/outcome length mismatch"),
], ids=["no-orbitals", "negative-sample-count", "keys-outcomes-unequal"])
def test_refusals_name_their_check(call, error, message):
    refuses(call, error, message)
