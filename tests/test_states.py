"""Core state representation: antisymmetry, determinants, RDMs, measurement."""

from itertools import combinations, permutations
import hashlib
import math
import struct

from hypothesis import HealthCheck, given, settings, strategies as st
import numpy as np
import pytest
from scipy import stats

from fqlab.cliffords import CliffordRows, draw_clifford_blocks
from fqlab.errors import (
    BruteForceLimitExceeded,
    DuplicateRegister,
    IndexOutOfRange,
    NonOrthonormalInput,
    NonUnitary,
    NotAntisymmetric,
    ValidationError,
    ZeroProjection,
)
from fqlab.meanfield import OccupiedOrbitals
from fqlab import states
from fqlab.rng import derive_rng
from fqlab.states import (
    FirstQuantizedState,
    antisymmetrize,
    apply_register_unitary,
    check_dense_size,
    check_orthonormal_columns,
    check_unit_norm,
    contract_registers,
    exact_1rdm,
    exact_krdm_element,
    first_second_equivalence_check,
    load_state,
    measure_all,
    register_factor,
    row_weights,
    sample_registers,
    save_state,
    signed_permutation_sum,
    slater_oracle,
    transition_expectation,
)
from fqlab.grids import GridSpec, register_qubits
from fqlab.stateprep import prepare_slater

from conftest import (
    basis_state,
    identity_rows,
    joint_born_outcomes,
    naive_signed_permutation_sum,
    perfbench_module,
    permutation_sign,
    random_antisymmetric_state,
    random_orthonormal,
    refuses,
    stack_sample_registers,
)


def basis(n_orbitals, labels):
    return basis_state(len(labels), n_orbitals, labels)


class TestAntisymmetrize:
    def test_two_particle_exchange(self):
        out = antisymmetrize(basis(4, (0, 1)))
        root2 = 1 / math.sqrt(2)
        assert out.tensor[0, 1] == pytest.approx(root2)
        assert out.tensor[1, 0] == pytest.approx(-root2)

    def test_pauli_exclusion(self):
        with pytest.raises(ZeroProjection):
            antisymmetrize(basis(4, (0, 0)))

    def test_uniform_pairs_match_projector_oracle(self):
        # Oracle: the antisymmetric projector on C^4 x C^4 is
        # (I - SWAP)/2 applied to the flattened 16-amplitude vector.
        vec = np.zeros((4, 4), dtype=complex)
        for p in range(4):
            for q in range(p + 1, 4):
                vec[p, q] = 1.0
        vec /= np.linalg.norm(vec)
        swap = np.zeros((16, 16))
        for p in range(4):
            for q in range(4):
                swap[4 * q + p, 4 * p + q] = 1.0
        projected = 0.5 * (np.eye(16) - swap) @ vec.reshape(-1)
        expected = projected / np.linalg.norm(projected)

        state = FirstQuantizedState(2, 4, vec)
        out = antisymmetrize(state)
        overlap = abs(np.vdot(expected, out.amplitudes))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_idempotent(self):
        state = random_antisymmetric_state(6, 2, seed=3)
        again = antisymmetrize(state)
        assert np.max(np.abs(again.tensor - state.tensor)) < 1e-12


def _random_tensor(eta, length, seed):
    rng = np.random.default_rng(seed)
    shape = (length,) * eta
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


_TENSORS = dict(eta=st.integers(1, 5), length=st.integers(1, 4),
                seed=st.integers(0, 2 ** 32 - 1))


class TestSignedPermutationSum:
    """The axis-by-axis antisymmetrizer against the eta!-term sum."""

    @given(**_TENSORS)
    def test_matches_naive_sum(self, eta, length, seed):
        tensor = _random_tensor(eta, length, seed)
        tol = 1e-12 * math.factorial(eta) * np.max(np.abs(tensor))
        out = signed_permutation_sum(tensor)
        assert np.max(np.abs(out - naive_signed_permutation_sum(tensor))) <= tol

    @given(**_TENSORS)
    def test_antisymmetric_under_adjacent_swaps(self, eta, length, seed):
        tensor = _random_tensor(eta, length, seed)
        tol = 1e-12 * math.factorial(eta) * np.max(np.abs(tensor))
        out = signed_permutation_sum(tensor)
        for j in range(eta - 1):
            assert np.max(np.abs(np.swapaxes(out, j, j + 1) + out)) <= tol

    @given(**_TENSORS)
    def test_antisymmetric_input_scaled_by_eta_factorial(self, eta, length, seed):
        # exactly antisymmetric: sgn(pi) * value at every permutation pi of
        # each strictly increasing label tuple, zero on repeated labels
        rng = np.random.default_rng(seed)
        anti = np.zeros((length,) * eta, dtype=complex)
        for occ in combinations(range(length), eta):
            value = rng.normal() + 1j * rng.normal()
            for perm in permutations(range(eta)):
                anti[tuple(occ[i] for i in perm)] = permutation_sign(perm) * value
        tol = 1e-12 * math.factorial(eta) * np.max(np.abs(anti))
        out = signed_permutation_sum(anti)
        assert np.max(np.abs(out - math.factorial(eta) * anti)) <= tol

    @given(**_TENSORS)
    def test_returns_a_fresh_array(self, eta, length, seed):
        # callers scale the result in place, so it must not alias the input
        tensor = _random_tensor(eta, length, seed)
        before = tensor.copy()
        out = signed_permutation_sum(tensor)
        assert out is not tensor and not np.shares_memory(out, tensor)
        out *= 2
        assert np.array_equal(tensor, before)


class TestSlaterOracle:
    def test_identity_orbitals(self):
        eye = np.eye(4)
        state = slater_oracle([eye[:, 0], eye[:, 1]])
        assert state.tensor[0, 1] == pytest.approx(1 / math.sqrt(2))
        assert state.tensor[1, 0] == pytest.approx(-1 / math.sqrt(2))

    def test_single_particle_is_the_orbital(self, rng):
        phi = rng.normal(size=5) + 1j * rng.normal(size=5)
        phi /= np.linalg.norm(phi)
        state = slater_oracle([phi])
        assert np.allclose(state.tensor[:5], phi)
        assert np.allclose(state.tensor[5:], 0)

    def test_occupied_space_rotation_invariance(self):
        eye = np.eye(4)
        plus = (eye[:, 0] + eye[:, 1]) / math.sqrt(2)
        minus = (eye[:, 0] - eye[:, 1]) / math.sqrt(2)
        a = slater_oracle([eye[:, 0], eye[:, 1]])
        b = slater_oracle([plus, minus])
        assert abs(a.overlap(b)) == pytest.approx(1.0, abs=1e-12)

    def test_amplitudes_are_determinants(self):
        # Oracle: evaluate the 2x2 determinant at every index pair directly.
        coeffs = random_orthonormal(6, 2, seed=9)
        state = slater_oracle(coeffs)
        for p in range(6):
            for q in range(6):
                det = coeffs[p, 0] * coeffs[q, 1] - coeffs[q, 0] * coeffs[p, 1]
                assert state.tensor[p, q] == pytest.approx(
                    det / math.sqrt(2), abs=1e-12)

    # eta >= 5 at small N only: 12^6 label tuples are too many to check
    @pytest.mark.parametrize("eta,n_orbitals", [
        *((eta, n) for eta in (1, 2, 3, 4) for n in (5, 6, 12)),
        (5, 5), (5, 6), (5, 7), (6, 6), (6, 7)])
    def test_every_amplitude_is_a_determinant(self, eta, n_orbitals):
        coeffs = random_orthonormal(n_orbitals, eta, seed=10 * n_orbitals + eta)
        tensor = slater_oracle(coeffs).tensor
        core = (slice(0, n_orbitals),) * eta
        labels = np.indices((n_orbitals,) * eta).reshape(eta, -1).T
        # det[phi_a(p_b)] for every label tuple (p_1, ..., p_eta)
        dets = np.linalg.det(coeffs[labels]).reshape((n_orbitals,) * eta)
        expected = dets / math.sqrt(math.factorial(eta))
        assert np.max(np.abs(tensor[core] - expected)) <= 1e-13
        padding = tensor.copy()
        padding[core] = 0
        assert not np.any(padding)

    def test_columns_within_the_orthonormal_tolerance_give_a_unit_norm_state(self):
        # accepted by the 1e-8 column check, yet 2e-9 off unit norm per
        # column: the determinant is normalized by its computed norm
        coeffs = random_orthonormal(4, 2, seed=3) * (1 + 1e-9)
        check_orthonormal_columns(coeffs)
        state = slater_oracle(coeffs)
        assert abs(state.norm() - 1.0) <= 1e-12
        assert abs(state.overlap(slater_oracle(random_orthonormal(4, 2, seed=3)))
                   ) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n_orbitals", [5, 6, 12])
    def test_two_particles_are_the_exchange_difference(self, n_orbitals):
        coeffs = random_orthonormal(n_orbitals, 2, seed=n_orbitals)
        phi = coeffs  # the stored labels: every orbital, no padding
        pair = np.multiply.outer(phi[:, 0], phi[:, 1])
        state = slater_oracle(coeffs)
        assert np.array_equal(state.tensor, (pair - pair.T) / math.sqrt(2))

    def test_rejects_non_orthonormal(self):
        eye = np.eye(4)
        tilted = eye[:, 1] + 1e-3 * eye[:, 0]
        tilted /= np.linalg.norm(tilted)
        with pytest.raises(NonOrthonormalInput):
            slater_oracle([eye[:, 0], tilted])

    def test_is_antisymmetric(self):
        state = slater_oracle(random_orthonormal(8, 3, seed=2))
        assert state.is_antisymmetric(tol=1e-12)


_NON_FINITE = [np.nan, np.inf, -np.inf, complex(0.0, np.inf)]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 6), data=st.data())
def test_occupied_orbital_consumers_agree(n, data):
    """The Slater oracle, Slater preparation and the TDHF orbitals accept
    or refuse (NonOrthonormalInput) the same coefficients: QR columns as
    drawn, scaled, tilted off orthonormality, or with one non-finite entry."""
    eta = data.draw(st.integers(1, n - 1), label="eta")
    coeffs = random_orthonormal(n, eta, seed=data.draw(st.integers(0, 999)))
    edit = data.draw(st.sampled_from(["drawn", "scale", "tilt", "entry"]))
    if edit == "scale":
        coeffs *= data.draw(st.sampled_from([0.5, 0.999, 1.001, 2.0]))
    elif edit == "tilt":
        coeffs[0, -1] += data.draw(st.floats(1e-3, 0.5))
    elif edit == "entry":
        coeffs[data.draw(st.integers(0, n - 1)),
               data.draw(st.integers(0, eta - 1))] = data.draw(
                   st.sampled_from(_NON_FINITE))
    verdicts = set()
    for consumer in (slater_oracle, prepare_slater, OccupiedOrbitals):
        try:
            consumer(coeffs.copy())
            verdicts.add("accepted")
        except NonOrthonormalInput:
            verdicts.add("refused")
    assert verdicts == {"accepted" if edit == "drawn" else "refused"}


def _kron_apply(unitaries, tensor):
    """np.kron(U_0, .., U_{ndim-1}) @ tensor.ravel(), shaped as ``tensor``:
    the oracle for the register contraction."""
    full = np.array([[1.0]])
    for u in unitaries:
        full = np.kron(full, u)
    return (full @ tensor.ravel()).reshape(tensor.shape)


_STACKS = dict(ndim=st.integers(1, 4), dim=st.integers(1, 4),
               seed=st.integers(0, 2 ** 32 - 1))


class TestContractRegisters:
    """One kernel for every per-axis contraction, against np.kron."""

    @given(**_STACKS)
    def test_single_stack(self, ndim, dim, seed):
        tensor = _random_tensor(ndim, dim, seed)
        units = np.stack([random_orthonormal(dim, dim, seed + x)
                          for x in range(ndim)])
        out = contract_registers(tensor, units)
        tol = 1e-12 * np.linalg.norm(tensor)
        assert out.shape == tensor.shape
        assert np.max(np.abs(out - _kron_apply(units, tensor))) <= tol

    @given(batch=st.integers(1, 3), **_STACKS)
    def test_batch_of_stacks(self, batch, ndim, dim, seed):
        tensor = _random_tensor(ndim, dim, seed)
        units = np.stack([[random_orthonormal(dim, dim, seed + batch * b + x)
                           for x in range(ndim)] for b in range(batch)])
        out = contract_registers(tensor, units)
        tol = 1e-12 * np.linalg.norm(tensor)
        assert out.shape == (batch,) + tensor.shape
        for b in range(batch):
            assert np.max(np.abs(out[b] - _kron_apply(units[b], tensor))) <= tol

    @given(batch=st.integers(1, 3), **_STACKS)
    def test_broadcast_stack(self, batch, ndim, dim, seed):
        # one U on every axis of every batch entry, read without a copy
        tensor = _random_tensor(ndim, dim, seed)
        u = random_orthonormal(dim, dim, seed)
        out = contract_registers(tensor, np.broadcast_to(u, (batch, ndim, dim, dim)))
        expect = _kron_apply([u] * ndim, tensor)
        tol = 1e-12 * np.linalg.norm(tensor)
        assert out.shape == (batch,) + tensor.shape
        assert np.max(np.abs(out - expect)) <= tol


class TestRegisterUnitary:
    @given(eta=st.integers(1, 4), n_orbitals=st.sampled_from([2, 4]),
           data=st.data())
    def test_complex_unitary_matches_kron_oracle(self, eta, n_orbitals, data):
        # the identity on the other registers must not drop the imaginary
        # part of a complex U
        register = data.draw(st.integers(1, eta))
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        tensor = _random_tensor(eta, n_orbitals, seed)
        state = FirstQuantizedState(eta, n_orbitals, tensor / np.linalg.norm(tensor))
        u = random_orthonormal(n_orbitals, n_orbitals, seed + 1)
        out = apply_register_unitary(state, register, u)
        units = [u if x == register - 1 else np.eye(n_orbitals)
                 for x in range(eta)]
        assert np.max(np.abs(out.tensor - _kron_apply(units, state.tensor))) <= 1e-12

    def test_identity(self):
        state = random_antisymmetric_state(4, 2, seed=1)
        out = apply_register_unitary(state, 1, np.eye(4))
        assert np.allclose(out.tensor, state.tensor)

    def test_bit_flip_moves_basis_label(self):
        state = basis(4, (0, 1))
        x_full = np.zeros((4, 4))
        x_full[[1, 0, 3, 2], [0, 1, 2, 3]] = 1.0  # relabels 0<->1, 2<->3
        out = apply_register_unitary(state, 1, x_full)
        assert out.tensor[1, 1] == pytest.approx(1.0)
        assert not out.antisymmetric

    def test_norm_preserved_random(self, rng):
        state = random_antisymmetric_state(4, 2, seed=8)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        out = apply_register_unitary(state, 2, q)
        assert out.norm() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_unitary(self):
        state = basis(4, (0, 1))
        with pytest.raises(NonUnitary):
            apply_register_unitary(state, 1, np.eye(4) * 1.001)

    def test_rejects_non_finite(self):
        u = np.eye(4, dtype=complex)
        u[0, 0] = np.nan
        with pytest.raises(NonUnitary):
            apply_register_unitary(basis(4, (0, 1)), 1, u)

    def test_register_range_checked(self):
        state = basis(4, (0, 1))
        with pytest.raises(ValidationError):
            apply_register_unitary(state, 3, np.eye(4))


class TestMeasureAll:
    # sha256 of 2000 int64 outcome rows of (N, eta, seed N + eta) states on
    # the stream (21, "pin", N), recorded from the chain-rule draw
    PINS = {
        (4, 2): "48660f0ee5fbada3f4561add982acc8243993dc5e42e2d6e3e2528acf6d0695e",
        (5, 3): "5f0305965ea77e1581f65f8a2eedef875788b4611a5e9afcf2df5c852ca0bdae",
        (7, 1): "583bd6ee6e0e8d0819325704bbbd69fff7e1cb3ecb7d574a2c96012bfce81819",
        (3, 3): "3cf20ac1f511331ee077976fce32996652d770eb8e25e92decec76e203af09dc",
    }

    @pytest.mark.parametrize("n_orbitals,eta", list(PINS))
    def test_outcomes_pinned(self, n_orbitals, eta):
        state = random_antisymmetric_state(n_orbitals, eta, seed=n_orbitals + eta)
        rng = derive_rng(21, "pin", n_orbitals)
        draws = np.array([measure_all(state, rng) for _ in range(2000)])
        assert (hashlib.sha256(draws.astype(np.int64).tobytes()).hexdigest()
                == self.PINS[n_orbitals, eta])

    @pytest.mark.parametrize("uniform,outcome", [
        (0.0, (1, 2)), (np.nextafter(1.0, 0.0), (2, 1)), (1.0, (2, 1))])
    def test_label_of_probability_zero_never_drawn(self, uniform, outcome):
        # only (1, 2) and (2, 1) carry weight: the first and the last
        # labels of the joint CDF are never drawn, also at its ends
        class Fixed:
            def random(self, size):
                return np.full(size, uniform)

        state = antisymmetrize(basis(4, (1, 2)))
        assert measure_all(state, Fixed()) == outcome

    def test_basis_state_deterministic(self):
        state = basis(4, (2, 3))
        for counter in range(5):
            assert measure_all(state, derive_rng(1, "m", counter)) == (2, 3)

    def test_singlet_born_rule(self):
        state = antisymmetrize(basis(4, (0, 1)))
        rng = derive_rng(7, "born")
        draws = [measure_all(state, rng) for _ in range(10_000)]
        count01 = sum(1 for d in draws if d == (0, 1))
        count10 = sum(1 for d in draws if d == (1, 0))
        assert count01 + count10 == 10_000
        # 5 sigma for a fair coin over 1e4 draws
        assert abs(count01 - 5000) < 5 * math.sqrt(10_000 * 0.25)

    def test_histogram_matches_amplitudes(self):
        state = random_antisymmetric_state(4, 2, seed=12)
        probs = np.abs(state.amplitudes) ** 2
        n_draws = 100_000
        # one bulk draw: the outcomes of n_draws measure_all calls on the stream
        outcomes = sample_registers(state.tensor,
                                    derive_rng(3, "chi2").random(n_draws),
                                    identity_rows(state.tensor, n_draws))
        rng = derive_rng(3, "chi2")
        assert all(measure_all(state, rng) == tuple(row) for row in outcomes[:1000])
        counts = np.bincount(np.ravel_multi_index(outcomes.T, state.tensor.shape),
                             minlength=probs.size)
        keep = probs > 1e-12
        chi2 = np.sum((counts[keep] - n_draws * probs[keep]) ** 2
                      / (n_draws * probs[keep]))
        p_value = stats.chi2.sf(chi2, df=keep.sum() - 1)
        assert p_value > 0.001


def padded_random_tensor(n_orbitals, eta, seed):
    """Unit-norm random complex tensor, zero on padded labels."""
    rng = np.random.default_rng(seed)
    tensor = np.zeros((2 ** register_qubits(n_orbitals),) * eta, dtype=complex)
    shape = (n_orbitals,) * eta
    tensor[(slice(0, n_orbitals),) * eta] = (rng.normal(size=shape)
                                             + 1j * rng.normal(size=shape))
    return tensor / np.linalg.norm(tensor)


class TestSampleRegisters:
    """The register-by-register draw against the joint inverse CDF."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("eta", [1, 2, 3, 4])
    def test_matches_joint_oracle_under_cliffords(self, eta, n):
        # N = 2, 3, 7: registers of 2 and 3 qubits are padded
        tensor = padded_random_tensor(max(2, 2 ** n - 1), eta, seed=10 * eta + n)
        rng = derive_rng(5, "oracle", 10 * eta + n)
        draws = 100 if n == 3 else 400
        uniforms = rng.random(draws)
        (_, rows), = draw_clifford_blocks(n, rng, (draws, eta), draws)
        outcomes = sample_registers(tensor, uniforms, rows)
        assert outcomes.shape == (draws, eta)
        assert np.array_equal(
            outcomes,
            joint_born_outcomes(contract_registers(tensor, rows.unitaries()),
                                uniforms))

    @pytest.mark.parametrize("n_orbitals", [2, 3, 4, 5, 8])
    @pytest.mark.parametrize("eta", [1, 2, 3])
    def test_matches_the_stack_sampler(self, n_orbitals, eta):
        # the same uniforms and draws, read by rows from the table and as
        # the dense stack of their unitaries' first N columns
        tensor = padded_random_tensor(n_orbitals, eta, seed=7 * n_orbitals + eta)
        tensor = tensor[(slice(0, n_orbitals),) * eta]
        rng = derive_rng(8, "rows", 10 * n_orbitals + eta)
        draws = 60 if n_orbitals > 4 else 600
        uniforms = rng.random(draws)
        (_, rows), = draw_clifford_blocks(register_qubits(n_orbitals), rng,
                                          (draws, eta), draws)
        stack = rows.unitaries()[..., :n_orbitals]
        expected = stack_sample_registers(tensor, uniforms, stack)
        assert np.array_equal(sample_registers(tensor, uniforms, rows), expected)
        weights = row_weights(register_factor(tensor), rows.table)
        assert np.array_equal(sample_registers(tensor, uniforms, rows, weights),
                              expected)

    @staticmethod
    def assert_ray_tables_change_no_outcome(tensor, uniforms, draws):
        # the same draws without their ray map take the per-sample path
        outcomes = sample_registers(tensor, uniforms, draws)
        plain = CliffordRows(draws.table, draws.index, draws.elements, draws.phases)
        assert np.array_equal(outcomes, sample_registers(tensor, uniforms, plain))
        units = draws.unitaries()[..., :tensor.shape[0]]
        assert np.array_equal(outcomes, joint_born_outcomes(
            contract_registers(tensor, units), uniforms))

    @pytest.mark.parametrize("n_orbitals", [2, 3, 4])
    @pytest.mark.parametrize("eta", [1, 2, 3, 4])
    def test_ray_tables_match_the_per_sample_path(self, n_orbitals, eta):
        # N = 2 draws 1-qubit registers, N = 3 and 4 2-qubit ones (N = 3
        # padded); the uniforms include both ends of [0, 1)
        tensor = padded_random_tensor(n_orbitals, eta, seed=11 * n_orbitals + eta)
        tensor = tensor[(slice(0, n_orbitals),) * eta]
        rng = derive_rng(12, "rays", 10 * n_orbitals + eta)
        uniforms = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], rng.random(598)])
        (_, draws), = draw_clifford_blocks(register_qubits(n_orbitals), rng,
                                           (len(uniforms), eta), len(uniforms))
        assert draws.rays is not None
        self.assert_ray_tables_change_no_outcome(tensor, uniforms, draws)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_ray_tables_on_the_readout_benchmark_inputs(self, tmp_path, seed):
        # the three snapshots of the readout_small benchmark workload
        workloads = perfbench_module("workloads")
        workloads.ReadoutSmall(workloads.SIZES["full"]["readout_small"], seed,
                               tmp_path, {}).make_inputs()
        for name in ("slater", "random", "filled"):
            tensor = load_state(tmp_path / f"{name}.bin").tensor
            rng = derive_rng(seed, f"readout-{name}")
            uniforms = np.concatenate([[0.0, np.nextafter(1.0, 0.0)],
                                       rng.random(1998)])
            (_, draws), = draw_clifford_blocks(2, rng, (2000, tensor.ndim), 2000)
            self.assert_ray_tables_change_no_outcome(tensor, uniforms, draws)

    @pytest.mark.parametrize("n_orbitals,eta", [(3, 2), (4, 3), (8, 2)])
    def test_identity_matches_the_stack_sampler(self, n_orbitals, eta):
        tensor = random_antisymmetric_state(n_orbitals, eta, seed=eta).tensor
        uniforms = derive_rng(9, "plain", n_orbitals).random(500)
        assert np.array_equal(
            sample_registers(tensor, uniforms, identity_rows(tensor, 500)),
            stack_sample_registers(tensor, uniforms))

    @pytest.mark.parametrize("n_orbitals,eta", [
        (2, 1), (3, 2), (4, 3), (5, 2), (6, 2), (8, 4), (16, 2)])
    def test_matches_joint_oracle_without_unitaries(self, n_orbitals, eta):
        tensor = padded_random_tensor(n_orbitals, eta, seed=n_orbitals + eta)
        uniforms = derive_rng(6, "plain", 10 * n_orbitals + eta).random(2000)
        outcomes = sample_registers(tensor, uniforms,
                                    identity_rows(tensor, len(uniforms)))
        batch = np.broadcast_to(tensor, (len(uniforms),) + tensor.shape)
        assert np.array_equal(outcomes, joint_born_outcomes(batch, uniforms))

    @pytest.mark.parametrize("n_orbitals,eta", [
        (3, 1), (3, 2), (5, 2), (5, 3), (6, 2), (6, 3)])
    def test_padded_labels_never_drawn(self, n_orbitals, eta):
        tensor = padded_random_tensor(n_orbitals, eta, seed=3 * n_orbitals + eta)
        rng = derive_rng(7, "padded", 10 * n_orbitals + eta)
        uniforms = np.concatenate([[0.0, np.nextafter(1.0, 0.0)],
                                   rng.random(3000)])
        outcomes = sample_registers(tensor, uniforms,
                                    identity_rows(tensor, len(uniforms)))
        assert outcomes.min() >= 0 and outcomes.max() < n_orbitals

    @pytest.mark.parametrize("n_orbitals", [3, 7])
    @pytest.mark.parametrize("eta", [1, 2, 3])
    def test_register_factor_spans_the_register_gram_matrix(self, n_orbitals,
                                                            eta):
        # N = 3 and 7 pad registers of 4 and 8 labels
        tensor = padded_random_tensor(n_orbitals, eta, seed=5 * n_orbitals + eta)
        flat = tensor.reshape(len(tensor), -1)
        factor = register_factor(tensor)
        gram = flat @ flat.conj().T
        assert np.max(np.abs(factor @ factor.conj().T - gram)) <= 1e-12
        assert not np.any(factor[n_orbitals:])  # padding labels keep weight 0

    def test_target_past_the_end_takes_the_last_positive_label(self):
        # |2, 2> over registers of 4 labels (N = 3), with register 2's
        # unitary shrunk by a few ulps as rounding might: at the largest
        # uniform below 1 the remaining target exceeds that register's
        # total, and the draw must stop at label 2, never at the zero-
        # probability label 3 or beyond the register.
        tensor = np.zeros((4, 4), dtype=complex)
        tensor[2, 2] = 1.0
        units = np.stack([np.eye(4), np.eye(4) * (1 - 4 * np.finfo(float).eps)])
        uniform = np.array([np.nextafter(1.0, 0.0)])
        outcomes = sample_registers(tensor, uniform,
                                    CliffordRows.of_stack(units[None]))
        assert outcomes.tolist() == [[2, 2]]
        assert np.array_equal(outcomes, joint_born_outcomes(
            contract_registers(tensor, units)[None], uniform))


class TestTransitionExpectation:
    def test_singlet_diagonal(self):
        state = antisymmetrize(basis(4, (0, 1)))
        val = transition_expectation(state, (1,), (0,), (0,))
        assert val == pytest.approx(0.5)

    def test_two_register_value_matches_direct_contraction(self):
        state = antisymmetrize(basis(4, (0, 1)))
        val = transition_expectation(state, (1, 2), (0, 1), (0, 1))
        # direct sum over all remaining indices (none here)
        direct = np.conj(state.tensor[0, 1]) * state.tensor[0, 1]
        assert val == pytest.approx(complex(direct))
        assert val == pytest.approx(0.5)

    def test_unoccupied_orbital_vanishes(self):
        state = antisymmetrize(basis(4, (0, 1)))
        assert transition_expectation(state, (1,), (3,), (3,)) == 0

    def test_duplicate_register_rejected(self):
        state = antisymmetrize(basis(4, (0, 1)))
        with pytest.raises(DuplicateRegister):
            transition_expectation(state, (1, 1), (0, 0), (1, 1))


class TestExactKrdm:
    def test_slater_1rdm_diagonal(self):
        eye = np.eye(4)
        state = slater_oracle([eye[:, 0], eye[:, 1]])
        rdm = exact_1rdm(state)
        assert np.allclose(np.diag(rdm), [1, 1, 0, 0], atol=1e-12)

    def test_trace_is_eta(self):
        state = random_antisymmetric_state(6, 3, seed=4)
        trace = sum(exact_krdm_element(state, (i,), (i,)) for i in range(6))
        assert trace.real == pytest.approx(3.0, abs=1e-10)
        assert abs(trace.imag) < 1e-10

    def test_two_rdm_element_of_slater(self):
        # Wick oracle for a determinant: D^{pq}_{rs} = P_pr P_qs - P_ps P_qr.
        coeffs = random_orthonormal(6, 2, seed=21)
        state = slater_oracle(coeffs)
        p_mat = coeffs @ coeffs.conj().T
        for (i1, i2, j1, j2) in [(0, 1, 0, 1), (0, 2, 1, 3), (2, 4, 2, 4)]:
            wick = (p_mat[j1, i1] * p_mat[j2, i2]
                    - p_mat[j2, i1] * p_mat[j1, i2])
            val = exact_krdm_element(state, (i1, i2), (j1, j2))
            assert val == pytest.approx(complex(wick), abs=1e-10)

    def test_identity_column_2rdm(self):
        eye = np.eye(4)
        state = slater_oracle([eye[:, 0], eye[:, 1]])
        assert exact_krdm_element(state, (0, 1), (0, 1)) == pytest.approx(1.0)

    def test_slater_1rdm_is_projector_spectrum(self):
        state = slater_oracle(random_orthonormal(6, 2, seed=5))
        rdm = exact_1rdm(state)
        assert np.max(np.abs(rdm - rdm.conj().T)) < 1e-12
        eigs = np.linalg.eigvalsh(rdm)
        assert np.all(eigs > -1e-10)
        assert np.all(eigs < 1 + 1e-10)

    def test_requires_antisymmetry(self):
        with pytest.raises(NotAntisymmetric):
            exact_krdm_element(basis(4, (0, 1)), (0,), (0,))

    @pytest.mark.parametrize("bra,ket,error", [
        ((-4,), (-4,), IndexOutOfRange),  # would read orbital 4's diagonal
        ((-1,), (-1,), IndexOutOfRange),
        ((6,), (6,), IndexOutOfRange),    # a padding label of d = 8
        ((5,), (0,), IndexOutOfRange),
        ((), (), ValidationError),        # would read the norm
        ((0,), (0, 1), ValidationError),
        ((0, 1, 2), (0, 1, 2), ValidationError),  # k above eta
    ])
    def test_labels_outside_the_orbitals_refused(self, bra, ket, error):
        # N = 5 orbitals in registers of d = 8
        state = random_antisymmetric_state(5, 2, seed=4)
        with pytest.raises(error):
            exact_krdm_element(state, bra, ket)
        with pytest.raises(error):
            transition_expectation(state, range(1, len(bra) + 1), bra, ket)

    def test_1rdm_refused_before_any_element(self, monkeypatch):
        def element(*args, **kwargs):
            raise AssertionError("element computed before the check")
        monkeypatch.setattr(states, "exact_krdm_element", element)
        with pytest.raises(NotAntisymmetric):
            exact_1rdm(basis(4, (0, 1)))


class TestFirstSecondEquivalence:
    def test_number_operator_on_occupied(self):
        eye = np.eye(4)
        state = slater_oracle([eye[:, 0], eye[:, 1]])
        assert first_second_equivalence_check(state, 0, 0)

    def test_excitation_matches_signed_determinant(self):
        eye = np.eye(4)
        state = slater_oracle([eye[:, 0], eye[:, 1]])
        assert first_second_equivalence_check(state, 2, 1)

    def test_annihilating_unoccupied_gives_zero(self):
        eye = np.eye(4)
        state = slater_oracle([eye[:, 0], eye[:, 1]])
        assert first_second_equivalence_check(state, 2, 3)

    @pytest.mark.parametrize("n_orbitals,eta", [(4, 2), (6, 3), (8, 2)])
    def test_random_slater_all_pairs(self, n_orbitals, eta):
        coeffs = random_orthonormal(n_orbitals, eta, seed=n_orbitals + eta)
        state = slater_oracle(coeffs)
        for p in range(n_orbitals):
            for q in range(n_orbitals):
                assert first_second_equivalence_check(state, p, q)

    def test_brute_force_guard(self):
        state = random_antisymmetric_state(16, 2, seed=1)
        with pytest.raises(BruteForceLimitExceeded):
            first_second_equivalence_check(state, 0, 1)


class TestSnapshotFormat:
    def test_roundtrip(self, tmp_path):
        grid = GridSpec(dim=1, points_per_axis=5, cell_volume=5.0)
        coeffs = random_orthonormal(5, 2, seed=13)
        state = slater_oracle(coeffs, grid=grid)
        path = tmp_path / "state.bin"
        save_state(path, state)
        loaded = load_state(path)
        assert loaded.eta == 2
        assert loaded.grid == grid
        assert np.array_equal(loaded.tensor, state.tensor)
        assert loaded.antisymmetric

    @settings(deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_roundtrip_property(self, tmp_path, data):
        # grids up to 4096 stored amplitudes, well inside the dense regime
        dim = data.draw(st.integers(1, 3))
        points = data.draw(st.integers(2, {1: 16, 2: 8, 3: 4}[dim]))
        volume = data.draw(st.floats(1e-3, 1e3))
        grid = GridSpec(dim=dim, points_per_axis=points, cell_volume=volume)
        n = grid.total_points
        eta = data.draw(st.integers(1, min(n, 12 // register_qubits(n))))
        base = random_antisymmetric_state(n, eta, data.draw(st.integers(0, 2 ** 32 - 1)))
        state = FirstQuantizedState(eta, n, base.tensor, grid=grid)
        path = tmp_path / "state.bin"
        save_state(path, state)
        loaded = load_state(path)
        assert loaded.eta == eta
        assert loaded.grid == grid
        assert np.array_equal(loaded.tensor, state.tensor)
        assert loaded.antisymmetric

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(ValidationError):
            load_state(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(b"FQS1\x01\x05\x00")
        with pytest.raises(ValidationError):
            load_state(path)

    def test_oversized_header_rejected_before_reading(self, tmp_path):
        # eta=9 on a 64^3 grid names 2^162 amplitudes
        path = tmp_path / "huge.bin"
        path.write_bytes(struct.pack("<4sBIdI", b"FQS1", 3, 64, 1.0, 9))
        with pytest.raises(ValidationError):
            load_state(path)

    def test_block_count_bounds_header(self, tmp_path):
        # 17^6 stored amplitudes exceed the budget; 17^5 fit it, so that
        # header is refused by the file's length (32^5 padded amplitudes)
        path = tmp_path / "padded.bin"
        path.write_bytes(struct.pack("<4sBIdI", b"FQS1", 1, 17, 17.0, 6))
        with pytest.raises(BruteForceLimitExceeded):
            load_state(path)
        path.write_bytes(struct.pack("<4sBIdI", b"FQS1", 1, 17, 17.0, 5))
        with pytest.raises(ValidationError, match="its header implies 536870912"):
            load_state(path)

    @pytest.mark.parametrize("dim,points,eta", [(1, 5, 3), (1, 6, 2), (3, 3, 2),
                                                (1, 4, 2)])
    def test_padded_file_round_trips(self, tmp_path, dim, points, eta):
        # the file holds the (2^n)^eta tensor, padding zero, as it always
        # has; the state holds the N^eta block
        grid = GridSpec(dim=dim, points_per_axis=points,
                        cell_volume=float(points ** dim))
        n = grid.total_points
        state = slater_oracle(random_orthonormal(n, eta, seed=n + eta), grid=grid)
        assert state.tensor.shape == (n,) * eta
        path = tmp_path / "state.bin"
        save_state(path, state)
        padded = np.zeros((2 ** register_qubits(n),) * eta, dtype="<c16")
        padded[(slice(0, n),) * eta] = state.tensor
        header = struct.pack("<4sBIdI", b"FQS1", dim, points, float(points ** dim),
                             eta)
        assert path.read_bytes() == header + padded.tobytes()
        loaded = load_state(path)
        assert np.array_equal(loaded.tensor, state.tensor)
        assert loaded.tensor.shape == (n,) * eta

    def test_slab_by_slab_io_matches_the_whole_tensor(self, tmp_path,
                                                      monkeypatch):
        # slabs of one row of register 1: the padding rows of register 1
        # and the padded labels of the others land in different slabs
        grid = GridSpec(dim=1, points_per_axis=5, cell_volume=5.0)
        state = slater_oracle(random_orthonormal(5, 3, seed=4), grid=grid)
        whole = tmp_path / "whole.bin"
        save_state(whole, state)
        monkeypatch.setattr(states, "SLAB_ENTRIES", 1)
        sliced = tmp_path / "sliced.bin"
        save_state(sliced, state)
        assert sliced.read_bytes() == whole.read_bytes()
        assert np.array_equal(load_state(whole).tensor, state.tensor)

    def test_trailing_bytes_rejected(self, tmp_path):
        grid = GridSpec(dim=1, points_per_axis=4, cell_volume=4.0)
        path = tmp_path / "state.bin"
        save_state(path, slater_oracle(random_orthonormal(4, 2, seed=3), grid=grid))
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ValidationError):
            load_state(path)

    def test_non_finite_amplitudes_rejected(self, tmp_path):
        grid = GridSpec(dim=1, points_per_axis=4, cell_volume=4.0)
        path = tmp_path / "state.bin"
        save_state(path, slater_oracle(random_orthonormal(4, 2, seed=3), grid=grid))
        raw = bytearray(path.read_bytes())
        raw[21:37] = np.array([np.nan], dtype="<c16").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(ValidationError):
            load_state(path)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_damaged_snapshots_raise_only_validation_errors(self, tmp_path, data):
        grid = GridSpec(dim=1, points_per_axis=4, cell_volume=4.0)
        path = tmp_path / "state.bin"
        save_state(path, slater_oracle(random_orthonormal(4, 2, seed=3), grid=grid))
        good = path.read_bytes()
        damage = data.draw(st.sampled_from(["truncate", "random", "header"]))
        if damage == "truncate":
            raw = good[:data.draw(st.integers(0, len(good) - 1))]
        elif damage == "random":
            raw = data.draw(st.binary(max_size=2 * len(good)))
        else:
            raw = struct.pack(
                "<4sBIdI", b"FQS1", data.draw(st.integers(0, 4)),
                data.draw(st.integers(0, 2 ** 32 - 1)), data.draw(st.floats()),
                data.draw(st.integers(0, 2 ** 32 - 1))) + good[21:]
        path.write_bytes(raw)
        try:
            load_state(path)
        except ValidationError:
            pass

    def test_gridless_state_cannot_serialize(self, tmp_path):
        state = random_antisymmetric_state(4, 2, seed=2)
        with pytest.raises(ValidationError):
            save_state(tmp_path / "x.bin", state)

    @pytest.mark.parametrize("damage", ["truncated", "oversized"])
    def test_bad_length_refused_before_an_amplitude_is_read(
            self, tmp_path, monkeypatch, damage):
        grid = GridSpec(dim=1, points_per_axis=5, cell_volume=5.0)
        path = tmp_path / "state.bin"
        save_state(path, slater_oracle(random_orthonormal(5, 2, seed=3), grid=grid))
        good = path.read_bytes()
        path.write_bytes(good[:-16] if damage == "truncated" else good + b"\0" * 16)

        def read(*args, **kwargs):
            raise AssertionError("an amplitude was read")
        monkeypatch.setattr(np, "fromfile", read)
        with pytest.raises(ValidationError, match="its header implies 1024"):
            load_state(path)


def padded_snapshot(tmp_path, tensor):
    """An FQS1 file of the padded ``tensor`` on the 1-D grid of 5 points
    (registers of 8 labels): the one way padded data enters a state."""
    path = tmp_path / "padded.bin"
    path.write_bytes(struct.pack("<4sBIdI", b"FQS1", 1, 5, 5.0, tensor.ndim)
                     + np.ascontiguousarray(tensor, dtype="<c16").tobytes())
    return path


class TestInvariants:
    def test_padding_enforced(self, tmp_path):
        tensor = np.zeros((8, 8), dtype=complex)
        tensor[6, 7] = 1.0  # orbital labels >= n_orbitals=5
        with pytest.raises(ValidationError):
            load_state(padded_snapshot(tmp_path, tensor))

    @pytest.mark.parametrize("eta", [1, 2, 3])
    @pytest.mark.parametrize("where", ["first", "last"])
    def test_padding_gate_at_1e_24(self, tmp_path, monkeypatch, eta, where):
        # 5 orbitals in 8 labels; the padding label sits on register 1 or
        # on register eta, the physical labels elsewhere; slabs of one
        # row of register 1 each
        monkeypatch.setattr(states, "SLAB_ENTRIES", 1)
        tensor = np.zeros((8,) * eta, dtype=complex)
        tensor[(0,) * eta] = 1.0
        label = (5,) + (0,) * (eta - 1) if where == "first" else (0,) * (eta - 1) + (7,)
        for amplitude, refused in ((1e-11, True), (1e-13, False)):
            tensor[label] = amplitude
            if refused:
                with pytest.raises(ValidationError, match="padded orbital labels"):
                    load_state(padded_snapshot(tmp_path, tensor))
            else:
                load_state(padded_snapshot(tmp_path, tensor))

    def test_padding_nan_refused(self, tmp_path):
        tensor = np.zeros((8, 8), dtype=complex)
        tensor[0, 1] = 1.0
        tensor[7, 7] = np.nan
        with pytest.raises(ValidationError, match="padded orbital labels"):
            load_state(padded_snapshot(tmp_path, tensor))

    def test_state_stores_the_block(self):
        # 1-D grid of 5 points: registers of 3 qubits, 8 labels each
        grid = GridSpec(dim=1, points_per_axis=5, cell_volume=5.0)
        state = slater_oracle(random_orthonormal(5, 3, seed=2), grid=grid)
        assert state.register_dim == 8
        assert state.tensor.shape == (5, 5, 5) and state.tensor.size == 125
        with pytest.raises(ValidationError, match="tensor shape"):
            FirstQuantizedState(3, 5, np.zeros((8,) * 3), grid=grid)

    def test_normalization_enforced(self):
        tensor = np.zeros((4, 4), dtype=complex)
        tensor[0, 1] = 0.5
        with pytest.raises(ValidationError):
            FirstQuantizedState(2, 4, tensor)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_amplitude_fails_the_norm_check(self, bad):
        tensor = np.zeros((4, 4), dtype=complex)
        tensor[0, 1] = 1.0
        tensor[2, 3] = bad
        with pytest.raises(ValidationError, match="normalized"):
            FirstQuantizedState(2, 4, tensor)

    def test_unit_norm_read_in_any_memory_layout(self, rng):
        strided = np.zeros((8, 12), dtype=complex)[::2, ::2]
        strided[:] = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
        strided /= np.linalg.norm(strided)
        for view in (strided, strided.T, strided[::-1]):
            check_unit_norm(view)
        with pytest.raises(ValidationError):
            check_unit_norm(strided[:, 1:])

    def test_antisymmetry_read_from_amplitudes(self):
        singlet = antisymmetrize(basis(4, (0, 1)))
        assert singlet.antisymmetric and not basis(4, (0, 1)).antisymmetric
        with pytest.raises(TypeError):
            FirstQuantizedState(2, 4, singlet.tensor, antisymmetric=True)
        with pytest.raises(AttributeError):
            singlet.antisymmetric = False

    def test_brute_force_limit(self):
        # the size guard fires before the tensor shape is inspected
        with pytest.raises(BruteForceLimitExceeded):
            FirstQuantizedState(3, 300, np.zeros(1))

    def test_dense_size_counts_stored_amplitudes(self):
        check_dense_size(16, 6)  # 2^24 stored amplitudes: the budget itself
        check_dense_size(17, 5)  # 17^5 < 2^24 stored; the padding is not
        check_dense_size(9, 7)  # 9^7 <= 2^24 < 16^7
        with pytest.raises(BruteForceLimitExceeded):
            check_dense_size(17, 6)  # 17^6 > 2^24
        with pytest.raises(BruteForceLimitExceeded):
            check_dense_size(3, 10 ** 12)  # no power is formed

    def test_no_size_the_padded_budget_allowed_is_refused(self):
        # the budget once counted (2^n)^eta amplitudes; N^eta is at most that
        sizes = [(n, eta) for n in range(2, 4100) for eta in range(1, 25)
                 if (2 ** register_qubits(n)) ** eta <= states.BRUTE_FORCE_AMPLITUDES]
        sizes += [(2 ** k + 1, 1) for k in range(12, 24)]
        for n, eta in sizes:
            check_dense_size(n, eta)


class TestDeterminantWeightIdentity:
    def test_oracle_equals_antisymmetrized_weighted_configurations(self):
        # build the sorted-configuration superposition with determinant
        # weights, antisymmetrize it, and compare with the direct oracle
        coeffs = random_orthonormal(6, 3, seed=33)
        state = slater_oracle(coeffs)
        weights = np.zeros((6, 6, 6), dtype=complex)
        from itertools import combinations
        for occ in combinations(range(6), 3):
            weights[occ] = np.linalg.det(coeffs[list(occ), :])
        weights /= np.linalg.norm(weights)
        ordered = FirstQuantizedState(3, 6, weights)
        assert abs(antisymmetrize(ordered).overlap(state)) == pytest.approx(
            1.0, abs=1e-10)


def whole_tensor_antisymmetric(tensor, tol):
    """The exchange check on whole-tensor swaps: the oracle for the
    slab-wise check."""
    return all(np.max(np.abs(np.swapaxes(tensor, j, j + 1) + tensor)) <= tol
               for j in range(tensor.ndim - 1))


class TestSlabwiseAntisymmetry:
    @pytest.mark.parametrize("eta", [2, 3, 4])
    @pytest.mark.parametrize("label", ["first", "last"])
    def test_agrees_with_the_whole_tensor_check(self, monkeypatch, eta, label):
        # slabs of at most 16 entries: one to four rows of register 1
        monkeypatch.setattr(states, "SLAB_ENTRIES", 16)
        base = random_antisymmetric_state(8, eta, seed=60 + eta).tensor
        spot = (0, 1, 2, 3)[:eta] if label == "first" else (7, 6, 5, 4)[:eta]
        broken = base.copy()
        broken[spot] += 1e-9  # breaks the swap of every pair of registers
        broken /= np.linalg.norm(broken)
        for tensor in (base, broken):
            state = FirstQuantizedState(eta, 8, tensor)
            worst = max(np.max(np.abs(np.swapaxes(tensor, j, j + 1) + tensor))
                        for j in range(eta - 1))
            for tol in (1e-10, worst, worst * (1 - 1e-9), 0.0):
                assert state.is_antisymmetric(tol) == whole_tensor_antisymmetric(
                    tensor, tol)
        assert not FirstQuantizedState(eta, 8, broken).is_antisymmetric()

    def test_violation_in_the_last_slab_only(self, monkeypatch):
        monkeypatch.setattr(states, "SLAB_ENTRIES", 16)
        tensor = random_antisymmetric_state(8, 2, seed=7).tensor.copy()
        tensor[7, 6] += 1e-9  # row 7: the last of register 1's slabs
        tensor /= np.linalg.norm(tensor)
        state = FirstQuantizedState(2, 8, tensor)
        assert not state.is_antisymmetric()
        assert not whole_tensor_antisymmetric(tensor, 1e-10)


@pytest.mark.parametrize("call,error,message", [
    (lambda: check_orthonormal_columns(np.zeros(3)), NonOrthonormalInput,
     "coefficients of shape (3,) are not N x eta"),
    (lambda: FirstQuantizedState(0, 4, np.zeros(())), ValidationError,
     "eta must be >= 1"),
    (lambda: FirstQuantizedState(2, 4, np.zeros((4, 4)),
                                 grid=GridSpec(1, 5, 5.0)),
     ValidationError, "grid size does not match n_orbitals"),
    (lambda: apply_register_unitary(random_antisymmetric_state(4, 2, seed=1),
                                    1, np.eye(3)),
     ValidationError, "unitary must be 4x4"),
    (lambda: transition_expectation(random_antisymmetric_state(4, 2, seed=1),
                                    (3,), (0,), (0,)),
     ValidationError, "register index out of range"),
    (lambda: first_second_equivalence_check(basis_state(2, 4, (0, 1)), 0, 1),
     NotAntisymmetric, "equivalence check needs an antisymmetric state"),
], ids=["coefficients-not-2d", "no-registers", "grid-not-n", "unitary-not-n",
        "register-beyond-eta", "equivalence-not-antisymmetric"])
def test_refusals_name_their_check(call, error, message):
    refuses(call, error, message)
