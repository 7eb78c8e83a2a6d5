"""Givens networks, window conversion, Toffoli ledger, end-to-end fidelity."""

import math

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from fqlab.errors import (
    BruteForceLimitExceeded,
    DecompositionFailure,
    OrderingViolation,
    ResidualPopulation,
    ValidationError,
)
from fqlab.grids import register_qubits
from fqlab.states import signed_permutation_sum, slater_oracle
from fqlab.stateprep import (
    ConversionRegisters,
    GivensNetwork,
    GivensRotation,
    antisymmetrization_gate_estimate,
    counter_register_width,
    givens_decompose,
    prepare_slater,
    toffoli_count,
)

from conftest import random_orthonormal


class TestGivensDecompose:
    def test_reference_columns_give_empty_network(self):
        net = givens_decompose(np.eye(6)[:, :2])
        assert net.rotation_count() == 0

    def test_single_rotation_for_two_level_orbital(self):
        theta = 0.8
        coeffs = np.array([[math.cos(theta)], [math.sin(theta)]])
        net = givens_decompose(coeffs)
        assert net.rotation_count() == 1
        rot = net.layers[0][0]
        assert (rot.orbital_a, rot.orbital_b) == (0, 1)
        assert rot.theta == pytest.approx(theta)

    @pytest.mark.parametrize("n_orbitals,eta", [(6, 2), (8, 3), (5, 4), (4, 1)])
    def test_projector_reconstruction(self, n_orbitals, eta):
        coeffs = random_orthonormal(n_orbitals, eta, seed=n_orbitals * 10 + eta)
        net = givens_decompose(coeffs)
        u = net.single_particle_unitary()
        rebuilt = u[:, :eta]
        p_net = rebuilt @ rebuilt.conj().T
        p_ref = coeffs @ coeffs.conj().T
        assert np.linalg.norm(p_net - p_ref) < 1e-9

    def test_layer_window_locality_enforced(self):
        with pytest.raises(ValidationError):
            GivensNetwork(n_orbitals=6, eta=2,
                          layers=((GivensRotation(3, 4, 0.1, 0.0),),))

    def test_rejects_non_orthonormal(self):
        bad = np.ones((4, 2)) / 2.0
        with pytest.raises(ValidationError):
            givens_decompose(bad)


def branches(regs):
    """Live branches as {(occupancy, counter, labels): amplitude}."""
    return {(int(occ), int(xi), tuple(int(v) for v in labels)): amp
            for occ, xi, labels, amp in zip(regs.occupancy, regs.counter,
                                             regs.labels, regs.amplitudes)}


def pack(regs, occupancy, counter, labels):
    """One branch key as ConversionRegisters lays it out, low bits first:
    the window slots, the counter, then one field per register label."""
    key = occupancy | counter << regs.window_slots
    base = regs.window_slots + regs.counter_width
    for x, label in enumerate(labels):
        key |= label << base + x * regs.register_qubits
    return np.array([key], dtype=np.int64)


def oracle_sizes():
    """(N, eta) with N <= 9, eta < N, whose dense oracle stays small."""
    return st.sampled_from([
        (n, eta) for n in range(2, 10) for eta in range(1, n)
        if (2 ** register_qubits(n)) ** eta * math.factorial(eta) <= 2 ** 22])


class TestConversion:
    def test_unoccupied_branch_untouched(self):
        regs = ConversionRegisters(n_orbitals=6, eta=2)
        # reference occupies orbitals 0 and 1; orbital 0 conversion moves
        # the one, after which slot 0 is empty for later orbitals
        before = branches(regs)
        regs.conversion_step(0, validate=True)
        assert regs.window_population(0) == pytest.approx(0.0, abs=1e-14)
        assert branches(regs) != before

    def test_occupied_branch_writes_label_and_counter(self):
        regs = ConversionRegisters(n_orbitals=6, eta=2)
        regs.conversion_step(0, validate=True)
        regs.conversion_step(1, validate=True)
        # all occupancy consumed: counter = 2, registers hold (0, 1)
        assert abs(branches(regs)[(0, 2, (0, 1))]) == pytest.approx(1.0)

    def test_hand_trace_ones_at_two_and_five(self):
        # drive the full pipeline for the determinant occupying {2, 5};
        # every intermediate is a basis branch, so the trace is exact
        coeffs = np.eye(8)[:, [2, 5]]
        net = givens_decompose(coeffs)
        regs = ConversionRegisters(n_orbitals=8, eta=2)
        for orbital in range(8):
            if orbital < 8 - 2:
                for rot in net.layers[orbital]:
                    regs.apply_window_rotation(rot)
            regs.conversion_step(orbital, validate=True)
            if orbital == 2:
                top = int(np.argmax(np.abs(regs.amplitudes)))
                assert regs.counter[top] == 1
                assert regs.labels[top, 0] == 2  # first register
        tensor = regs.finish()
        assert abs(tensor[2, 5]) == pytest.approx(1 / math.sqrt(2))
        assert tensor[5, 2] == pytest.approx(-tensor[2, 5])
        assert regs.ledger.total == toffoli_count(8, 2, "improved")

    def test_norm_preserved_through_conversion(self):
        coeffs = random_orthonormal(6, 2, seed=3)
        net = givens_decompose(coeffs)
        regs = ConversionRegisters(n_orbitals=6, eta=2)
        for orbital in range(6):
            if orbital < 4:
                for rot in net.layers[orbital]:
                    regs.apply_window_rotation(rot)
            regs.conversion_step(orbital)
            assert np.linalg.norm(regs.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_out_of_order_conversion_rejected(self):
        regs = ConversionRegisters(n_orbitals=6, eta=2)
        with pytest.raises(ValidationError):
            regs.conversion_step(1)

    def test_ordering_violation_detected(self):
        regs = ConversionRegisters(n_orbitals=6, eta=2)
        # craft an invalid branch: counter 0 but register 1 already written,
        # with the orbital-0 window slot occupied
        regs.keys = pack(regs, 1, 0, [3, 0])
        regs.amplitudes = np.array([1.0 + 0j])
        with pytest.raises(OrderingViolation, match="already written"):
            regs.conversion_step(0, validate=True)

    def test_full_counter_rejected(self):
        regs = ConversionRegisters(n_orbitals=6, eta=2)
        # an occupied window slot on a branch whose registers are all written
        regs.keys = pack(regs, 1, 2, [1, 2])
        regs.amplitudes = np.array([1.0 + 0j])
        with pytest.raises(OrderingViolation, match="capacity"):
            regs.conversion_step(0)

    @pytest.mark.parametrize("counter,labels,message", [
        (1, [2, 3, 0], "unwritten register"),
        (2, [3, 2, 0], "not strictly ascending"),
    ])
    def test_branch_invariants_checked(self, counter, labels, message):
        regs = ConversionRegisters(n_orbitals=6, eta=3)
        # a live branch breaking an invariant, off the converted slot
        regs.keys = pack(regs, 1 << 2, counter, labels)
        regs.amplitudes = np.array([1.0 + 0j])
        with pytest.raises(OrderingViolation, match=message):
            regs.conversion_step(0, validate=True)

    @settings(max_examples=60, deadline=None)
    @given(size=st.sampled_from([(5, 2), (6, 3), (9, 3), (16, 4), (1024, 5)]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_invariants_read_from_keys_match_unpacked_labels(self, size, seed):
        # random branches, many of them breaking an invariant; the check
        # on packed keys refuses exactly what the unpacked labels refuse
        n_orbitals, eta = size
        regs = ConversionRegisters(n_orbitals, eta)
        rng = np.random.default_rng(seed)
        count = int(rng.integers(1, 6))
        keys = []
        for _ in range(count):
            counter = int(rng.integers(0, 1 << regs.counter_width))
            labels = sorted(rng.choice(regs.register_dim, eta, replace=False))
            if rng.random() < 0.7:  # unwritten registers cleared
                labels[counter:] = [0] * len(labels[counter:])
            i, j = sorted(rng.choice(eta, 2, replace=False))
            if rng.random() < 0.3:  # two registers swapped
                labels[i], labels[j] = labels[j], labels[i]
            elif rng.random() < 0.3:  # one label written twice
                labels[j] = labels[i]
            keys.append(pack(regs, int(rng.integers(0, 1 << regs.window_slots)),
                             counter, [int(v) for v in labels]))
        regs.keys = np.concatenate(keys)
        regs.amplitudes = rng.choice([0.0, 1e-13, 0.5], count).astype(complex)
        live = np.abs(regs.amplitudes) > 1e-12
        labels, counter = regs.labels[live], regs.counter[live]
        written = np.arange(eta) < counter[:, None]
        expected = ("unwritten register" if np.where(written, 0, labels).any()
                    else "not strictly ascending"
                    if (written[:, 1:] & (labels[:, :-1] >= labels[:, 1:])).any()
                    else None)
        try:
            regs._check_branch_invariants()
            refused = None
        except OrderingViolation as exc:
            refused = ("unwritten register" if "unwritten" in str(exc)
                       else "not strictly ascending")
        assert refused == expected

    def test_residual_population_detected(self):
        regs = ConversionRegisters(n_orbitals=6, eta=2)
        for orbital in range(6):
            regs.conversion_step(orbital)
        # resurrect window population behind the conversion's back: move
        # the finished (0, 1) branch onto window slot 1
        assert list(branches(regs)) == [(0, 2, (0, 1))]
        regs.keys = pack(regs, 1 << 1, 2, [0, 1])
        with pytest.raises(ResidualPopulation):
            regs.finish()

    def test_key_fields_unpack_as_packed(self):
        regs = ConversionRegisters(n_orbitals=9, eta=3)
        regs.keys = pack(regs, 0b1010, 2, [3, 8, 0])
        regs.amplitudes = np.array([0.5 + 0j])
        assert branches(regs) == {(0b1010, 2, (3, 8, 0)): 0.5}

    def test_keys_beyond_63_bits_refused(self):
        # 7 slots + 3 counter bits + 6 labels of 10 bits = 70 bits
        with pytest.raises(ValidationError, match="63 bits"):
            ConversionRegisters(n_orbitals=1024, eta=6)
        ConversionRegisters(n_orbitals=1024, eta=5)  # 6 + 3 + 50 = 59 bits

    @settings(max_examples=40, deadline=None)
    @given(size=oracle_sizes(), seed=st.integers(0, 2 ** 32 - 1))
    def test_scatter_isometry_equals_the_dense_antisymmetrizer(self, size,
                                                               seed):
        n_orbitals, eta = size
        net = givens_decompose(random_orthonormal(n_orbitals, eta, seed=seed))
        regs = ConversionRegisters(n_orbitals, eta)
        for orbital in range(n_orbitals):
            if orbital < n_orbitals - eta:
                for rot in net.layers[orbital]:
                    regs.apply_window_rotation(rot)
            regs.conversion_step(orbital)
        done = (regs.occupancy == 0) & (regs.counter == eta)
        sorted_tensor = np.zeros((n_orbitals,) * eta, dtype=complex)
        sorted_tensor[tuple(regs.labels[done].T)] = regs.amplitudes[done]
        dense = signed_permutation_sum(sorted_tensor) / math.sqrt(
            math.factorial(eta))
        assert np.array_equal(regs.finish(), dense)

    @settings(max_examples=40, deadline=None)
    @given(size=oracle_sizes(), seed=st.integers(0, 2 ** 32 - 1))
    def test_random_determinants_stay_within_binomial_branches(self, size, seed):
        n_orbitals, eta = size
        coeffs = random_orthonormal(n_orbitals, eta, seed=seed)
        net = givens_decompose(coeffs)
        regs = ConversionRegisters(n_orbitals, eta)
        bound = math.comb(n_orbitals, eta)
        for orbital in range(n_orbitals):
            if orbital < n_orbitals - eta:
                for rot in net.layers[orbital]:
                    regs.apply_window_rotation(rot)
                    assert regs.amplitudes.size <= bound
            regs.conversion_step(orbital, validate=True)
            assert regs.amplitudes.size <= bound
        assert regs.ledger.total == toffoli_count(n_orbitals, eta)
        result = prepare_slater(coeffs)
        oracle = slater_oracle(coeffs)
        assert abs(abs(result.state.overlap(oracle)) - 1.0) <= 1e-9
        assert result.ledger.total == toffoli_count(n_orbitals, eta)


class TestPrepareSlater:
    def test_reference_determinant(self):
        result = prepare_slater(np.eye(4)[:, :2])
        root2 = 1 / math.sqrt(2)
        assert result.state.tensor[0, 1] == pytest.approx(root2)
        assert result.state.tensor[1, 0] == pytest.approx(-root2)

    def test_single_particle(self, rng):
        phi = rng.normal(size=4) + 1j * rng.normal(size=4)
        phi /= np.linalg.norm(phi)
        result = prepare_slater(phi[:, None])
        oracle = slater_oracle([phi])
        assert abs(result.state.overlap(oracle)) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("n_orbitals,eta",
                             [(8, 2), (6, 3), (4, 3), (16, 5), (8, 6)])
    def test_matches_oracle(self, n_orbitals, eta):
        coeffs = random_orthonormal(n_orbitals, eta, seed=7 * n_orbitals + eta)
        result = prepare_slater(coeffs, validate=True)
        oracle = slater_oracle(coeffs)
        assert abs(result.state.overlap(oracle)) == pytest.approx(1.0, abs=1e-9)
        assert result.state.is_antisymmetric(tol=1e-10)

    def test_each_givens_block_built_once(self, monkeypatch):
        # the decomposition and the window rotation read the one block
        # built with each rotation
        built = []
        build = GivensRotation.__post_init__

        def counted(rot):
            built.append(rot)
            build(rot)
        monkeypatch.setattr(GivensRotation, "__post_init__", counted)
        result = prepare_slater(random_orthonormal(16, 4, seed=164),
                                validate=True)
        assert result.network.rotation_count() == 48
        assert len(built) == 48
        assert not any(rot.block.flags.writeable for rot in built)

    def test_twelve_orbitals_five_particles_match_oracle(self):
        coeffs = random_orthonormal(12, 5, seed=125)
        result = prepare_slater(coeffs)
        oracle = slater_oracle(coeffs)
        assert abs(result.state.overlap(oracle)) == pytest.approx(1.0, abs=1e-9)
        assert result.ledger.total == toffoli_count(12, 5, "improved")

    def test_output_beyond_dense_regime_refused(self):
        # 40^5 amplitudes: refused before any decomposition or allocation
        with pytest.raises(BruteForceLimitExceeded):
            prepare_slater(random_orthonormal(40, 5, seed=405))

    def test_occupied_space_gauge_invariance(self, rng):
        coeffs = random_orthonormal(6, 2, seed=31)
        mixer = np.linalg.qr(rng.normal(size=(2, 2))
                             + 1j * rng.normal(size=(2, 2)))[0]
        a = prepare_slater(coeffs)
        b = prepare_slater(coeffs @ mixer)
        assert abs(a.state.overlap(b.state)) == pytest.approx(1.0, abs=1e-9)

    def test_ledger_matches_closed_form(self):
        for n_orbitals, eta in [(4, 2), (8, 2), (8, 3), (6, 5)]:
            coeffs = random_orthonormal(n_orbitals, eta, seed=eta)
            result = prepare_slater(coeffs)
            assert result.ledger.total == toffoli_count(n_orbitals, eta, "improved")
            assert result.ledger.total == sum(result.ledger.counts.values())


class TestToffoliCounts:
    def test_improved_known_value(self):
        assert toffoli_count(8, 2, "improved") == 48

    def test_basic_known_value(self):
        assert toffoli_count(8, 2, "basic") == 72

    def test_improved_never_worse_up_to_1024(self):
        for n_orbitals in range(3, 1025):
            for eta in range(1, n_orbitals - 1):
                assert (toffoli_count(n_orbitals, eta, "improved")
                        <= toffoli_count(n_orbitals, eta, "basic"))

    def test_counter_width(self):
        assert counter_register_width(1) == 1
        assert counter_register_width(3) == 2
        assert counter_register_width(4) == 3

    def test_antisymmetrization_estimate_scale(self):
        assert antisymmetrization_gate_estimate(16, 1) == 0
        assert antisymmetrization_gate_estimate(16, 4) == 4 * 2 * 4

    def test_bad_variant(self):
        with pytest.raises(ValidationError):
            toffoli_count(8, 2, "fancy")
