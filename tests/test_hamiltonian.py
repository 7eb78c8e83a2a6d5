"""Grid Hamiltonian: diagonal tables, split-operator evolution, energies."""

import math
import os
from pathlib import Path
import subprocess
import sys
import tracemalloc

from hypothesis import assume, given, settings, strategies as st
import numpy as np
import pytest

from fqlab import hamiltonian
from fqlab.errors import BruteForceLimitExceeded, SingularPotential, ValidationError
from fqlab.grids import GridSpec
from fqlab.hamiltonian import (
    CoulombKernel,
    EvolutionPlan,
    GridHamiltonian,
    NuclearConfig,
    apply_kinetic_evolution,
    apply_potential_evolution,
    dense_hamiltonian,
    evolve,
    evolve_block,
    kinetic_expectation,
    kinetic_phase_table,
    potential_diagonal,
    potential_expectation,
    total_energy,
)
from fqlab import states
from fqlab.states import FirstQuantizedState, slater_oracle

from conftest import (
    flat_index,
    grid_dft_matrix,
    kron_sum,
    random_antisymmetric_state,
    random_orthonormal,
    refuses,
)

BARE = CoulombKernel()


def free(grid, kernel=BARE):
    """H on ``grid`` without nuclei."""
    return GridHamiltonian(grid, NuclearConfig.empty(grid.dim), kernel)


def hydrogenic_system(points=8, volume=8.0, charge=2.0, soften=0.5):
    grid = GridSpec(dim=1, points_per_axis=points, cell_volume=volume)
    nuclei = NuclearConfig(np.array([[0.3]]), np.array([charge]))
    kernel = CoulombKernel(softening=soften)
    return grid, nuclei, kernel


def ground_slater(grid, nuclei, kernel, eta=2):
    ham = GridHamiltonian(grid, nuclei, kernel)
    h = ham.kinetic_matrix() + np.diag(ham.nuclear())
    _, vecs = np.linalg.eigh(h)
    return slater_oracle([vecs[:, a] for a in range(eta)], grid=grid)


class TestKineticTable:
    def test_zero_momentum(self):
        grid = GridSpec(dim=3, points_per_axis=3, cell_volume=27.0)
        assert kinetic_phase_table(grid)[flat_index(grid, (0, 0, 0))] == 0.0

    def test_known_value(self):
        grid = GridSpec(dim=3, points_per_axis=3, cell_volume=27.0)
        value = kinetic_phase_table(grid)[flat_index(grid, (1, 0, 0))]
        assert value == pytest.approx((2 * math.pi / 3) ** 2 / 2, rel=1e-12)

    def test_symmetric_under_negation(self):
        grid = GridSpec(dim=2, points_per_axis=5, cell_volume=4.0)
        table = kinetic_phase_table(grid)
        for point in grid.index_points:
            assert table[flat_index(grid, point)] == pytest.approx(
                table[flat_index(grid, -point)], rel=1e-12)

    @pytest.mark.parametrize("dim,points", [(1, 6), (2, 3), (2, 4)])
    def test_kinetic_matrix_hermitian_with_table_spectrum(self, dim, points):
        grid = GridSpec(dim=dim, points_per_axis=points, cell_volume=5.0)
        t = free(grid).kinetic_matrix()
        assert np.array_equal(t, t.conj().T)
        assert np.allclose(np.linalg.eigvalsh(t),
                           np.sort(kinetic_phase_table(grid)), atol=1e-12)


    @pytest.mark.parametrize("dim,points", [(1, 7), (1, 8), (2, 3), (2, 4),
                                            (3, 3), (3, 4)])
    def test_kinetic_matrix_is_the_dft_oracle_and_real(self, dim, points):
        grid = GridSpec(dim=dim, points_per_axis=points,
                        cell_volume=1.3 * points ** dim)
        dft = grid_dft_matrix(grid)
        oracle = dft.conj().T @ np.diag(kinetic_phase_table(grid)) @ dft
        t = free(grid).kinetic_matrix()
        assert t.dtype == np.float64
        assert np.max(np.abs(t - oracle)) < 1e-12


class TestKroneckerSum:
    @given(m=st.integers(1, 4), copies=st.integers(1, 4),
           complex_op=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_kron_oracle(self, m, copies, complex_op, seed):
        rng = np.random.default_rng(seed)
        op = rng.normal(size=(m, m))
        if complex_op:
            op = op + 1j * rng.normal(size=(m, m))
        out = hamiltonian._kronecker_sum(op, copies)
        assert out.dtype == op.dtype
        assert np.array_equal(out, kron_sum(op, copies))


class TestDenseHamiltonian:
    def test_refused_before_allocation_on_the_dynamics_grid(self, monkeypatch):
        # N = 343, eta = 2: a 262144^2 complex matrix, about 1.1 TB
        def built(*args):
            raise AssertionError("dense H started before the size check")
        monkeypatch.setattr(hamiltonian, "_kronecker_sum", built)
        grid = GridSpec(dim=3, points_per_axis=7, cell_volume=343.0)
        with pytest.raises(BruteForceLimitExceeded):
            dense_hamiltonian(free(grid, CoulombKernel(0.5)), 2)


class TestPotentialDiagonal:
    def test_free_single_particle_is_zero(self):
        grid = GridSpec(dim=1, points_per_axis=5, cell_volume=5.0)
        w = potential_diagonal(free(grid), eta=1)
        assert np.all(w == 0)

    def test_pair_one_spacing_apart(self):
        grid = GridSpec(dim=1, points_per_axis=5, cell_volume=5.0)
        w = potential_diagonal(free(grid), eta=2)
        delta = grid.spacing
        assert w[1, 2] == pytest.approx(1.0 / delta, rel=1e-12)

    def test_nuclear_attraction_value(self):
        # charge 2 at exactly 3*delta from the origin grid point, placed
        # off-lattice so the bare kernel is regular everywhere
        grid = GridSpec(dim=2, points_per_axis=5, cell_volume=25.0)
        nuclei = NuclearConfig(np.array([[1.8, 2.4]]), np.array([2.0]))
        w = potential_diagonal(GridHamiltonian(grid, nuclei, BARE), eta=1)
        delta = grid.spacing
        idx = flat_index(grid, (0, 0))
        assert w[idx] == pytest.approx(-2.0 / (3 * delta), rel=1e-12)

    def test_bare_nucleus_on_grid_point_is_singular(self):
        grid = GridSpec(dim=1, points_per_axis=5, cell_volume=5.0)
        nuclei = NuclearConfig(np.array([[1.0]]), np.array([1.0]))  # r_1 = 1.0
        with pytest.raises(SingularPotential):
            GridHamiltonian(grid, nuclei, BARE).nuclear()

    def test_softening_converges_monotonically_to_bare(self):
        grid = GridSpec(dim=1, points_per_axis=5, cell_volume=5.0)
        bare = free(grid).pair()[1, 3]
        values = [free(grid, CoulombKernel(softening=s)).pair()[1, 3]
                  for s in (0.5, 0.25, 0.125, 0.0625)]
        assert np.all(np.diff(values) > 0)
        assert np.all(np.array(values) < bare)
        assert values[-1] == pytest.approx(bare, rel=0.05)

    @pytest.mark.parametrize("dim,points", [(1, 7), (1, 8), (2, 4), (2, 5),
                                            (3, 3), (3, 4)])
    @pytest.mark.parametrize("softening", [0.0, 0.5])
    def test_pair_table_matches_direct_distances(self, dim, points, softening):
        grid = GridSpec(dim=dim, points_per_axis=points,
                        cell_volume=1.7 * points ** dim)
        kernel = CoulombKernel(softening=softening)
        v = free(grid, kernel).pair()
        dist = np.linalg.norm(grid.positions[:, None, :]
                              - grid.positions[None, :, :], axis=2)
        off = ~np.eye(grid.total_points, dtype=bool)
        assert np.array_equal(v, v.T)
        assert np.max(np.abs(v[off] / kernel(dist[off]) - 1)) < 1e-15
        expected = 1.0 / softening if softening else 0.0
        assert np.all(np.diag(v) == expected)

    def test_nuclear_repulsion_pair(self):
        nuclei = NuclearConfig(np.array([[0.0], [1.0]]), np.array([1.0, 1.0]))
        grid = GridSpec(dim=1, points_per_axis=4, cell_volume=4.0)
        assert GridHamiltonian(grid, nuclei, BARE).nuclear_repulsion() == \
            pytest.approx(1.0)


class TestEvolutionSteps:
    def test_zero_time_kinetic_identity(self):
        state = random_antisymmetric_state(4, 2, seed=0)
        grid = GridSpec(dim=1, points_per_axis=4, cell_volume=4.0)
        state.grid = grid
        out = apply_kinetic_evolution(state, 0.0, free(grid))
        assert np.max(np.abs(out.tensor - state.tensor)) < 1e-14

    def test_plane_wave_acquires_eigenphase(self):
        grid = GridSpec(dim=1, points_per_axis=5, cell_volume=5.0)
        dft = grid_dft_matrix(grid)
        wave = dft.conj().T[:, 3]
        state = FirstQuantizedState(1, 5, wave, grid=grid)
        out = apply_kinetic_evolution(state, 0.7, free(grid))
        expected = np.exp(-1j * kinetic_phase_table(grid)[3] * 0.7)
        assert np.max(np.abs(out.tensor[:5] - expected * wave)) < 1e-12
        probs_in = np.abs(state.tensor) ** 2
        probs_out = np.abs(out.tensor) ** 2
        assert np.max(np.abs(probs_in - probs_out)) < 1e-12

    def test_kinetic_expectation_invariant(self):
        grid, nuclei, kernel = hydrogenic_system()
        state = ground_slater(grid, nuclei, kernel)
        before = kinetic_expectation(state)
        after = kinetic_expectation(apply_kinetic_evolution(
            state, 0.37, GridHamiltonian(grid, nuclei, kernel)))
        assert after == pytest.approx(before, abs=1e-10)

    def test_potential_zero_time_and_semigroup(self):
        grid, nuclei, kernel = hydrogenic_system()
        state = ground_slater(grid, nuclei, kernel)
        ham = GridHamiltonian(grid, nuclei, kernel)
        same = apply_potential_evolution(state, 0.0, ham)
        assert np.max(np.abs(same.tensor - state.tensor)) < 1e-14
        once = apply_potential_evolution(state, 0.7, ham)
        twice = apply_potential_evolution(
            apply_potential_evolution(state, 0.3, ham), 0.4, ham)
        assert np.max(np.abs(once.tensor - twice.tensor)) < 1e-12

    def test_position_distribution_unchanged_by_potential(self):
        grid, nuclei, kernel = hydrogenic_system()
        state = ground_slater(grid, nuclei, kernel)
        out = apply_potential_evolution(state, 1.3,
                                        GridHamiltonian(grid, nuclei, kernel))
        assert np.max(np.abs(np.abs(out.tensor) ** 2
                             - np.abs(state.tensor) ** 2)) < 1e-14


class TestEvolve:
    def test_free_evolution_equals_kinetic(self):
        # one free particle has U = V = 0 exactly, so every step count
        # reproduces the pure kinetic evolution
        grid = GridSpec(dim=1, points_per_axis=5, cell_volume=5.0)
        rng = np.random.default_rng(3)
        reg = rng.normal(size=5) + 1j * rng.normal(size=5)
        reg /= np.linalg.norm(reg)
        state = FirstQuantizedState(1, 5, reg, grid=grid)
        expect = apply_kinetic_evolution(state, 0.8, free(grid))
        for steps in (1, 3):
            plan = EvolutionPlan(total_time=0.8, steps=steps, order=1)
            out = evolve(state, plan, free(grid))
            assert np.max(np.abs(out.tensor - expect.tensor)) < 1e-12

    def test_strang_error_quarters_when_steps_double(self):
        grid = GridSpec(dim=1, points_per_axis=4, cell_volume=4.0)
        nuclei = NuclearConfig(np.array([[0.3]]), np.array([1.0]))
        kernel = CoulombKernel(softening=0.5)
        state = ground_slater(grid, nuclei, kernel)
        ham = dense_hamiltonian(GridHamiltonian(grid, nuclei, kernel), 2)
        w, v = np.linalg.eigh(ham)
        exact = (v * np.exp(-1j * w * 0.5)) @ v.conj().T @ state.amplitudes
        errors = []
        for steps in (4, 8, 16):
            plan = EvolutionPlan(total_time=0.5, steps=steps, order=2)
            out = evolve(state, plan, GridHamiltonian(grid, nuclei, kernel))
            errors.append(np.linalg.norm(out.amplitudes - exact))
        for a, b in zip(errors, errors[1:]):
            assert a / b == pytest.approx(4.0, rel=0.25)

    def test_unitarity_all_orders(self):
        grid, nuclei, kernel = hydrogenic_system()
        state = ground_slater(grid, nuclei, kernel)
        for order in (1, 2, 4):
            plan = EvolutionPlan(total_time=0.9, steps=7, order=order)
            out = evolve(state, plan, GridHamiltonian(grid, nuclei, kernel))
            assert out.norm() == pytest.approx(1.0, abs=1e-10)

    def test_register_swap_commutes_with_evolution(self):
        # H is permutation symmetric, so evolving commutes with swapping
        # registers even on non-antisymmetric states.
        grid = GridSpec(dim=1, points_per_axis=4, cell_volume=4.0)
        rng = np.random.default_rng(5)
        tensor = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        tensor /= np.linalg.norm(tensor)
        state = FirstQuantizedState(2, 4, tensor, grid=grid)
        nuclei = NuclearConfig(np.array([[0.3]]), np.array([1.0]))
        ham = GridHamiltonian(grid, nuclei, CoulombKernel(softening=0.5))
        plan = EvolutionPlan(total_time=0.4, steps=6, order=2)
        evolved_then_swapped = np.swapaxes(
            evolve(state, plan, ham).tensor, 0, 1)
        swapped = FirstQuantizedState(2, 4, np.swapaxes(tensor, 0, 1), grid=grid)
        swapped_then_evolved = evolve(swapped, plan, ham).tensor
        assert np.max(np.abs(evolved_then_swapped - swapped_then_evolved)) < 1e-12

    def test_antisymmetry_preserved(self):
        grid, nuclei, kernel = hydrogenic_system()
        state = ground_slater(grid, nuclei, kernel)
        plan = EvolutionPlan(total_time=1.0, steps=20, order=2)
        out = evolve(state, plan, GridHamiltonian(grid, nuclei, kernel))
        assert out.antisymmetric
        assert out.is_antisymmetric(tol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(dim=st.sampled_from([1, 2]), points=st.integers(2, 4),
           eta=st.integers(2, 3), order=st.sampled_from([1, 2, 4]),
           steps=st.integers(1, 4), time=st.floats(0.05, 2.0),
           seed=st.integers(0, 2 ** 16))
    def test_norm_and_antisymmetry_kept(self, dim, points, eta, order,
                                        steps, time, seed):
        grid = GridSpec(dim=dim, points_per_axis=points,
                        cell_volume=float(points ** dim))
        assume(grid.total_points >= eta)
        rng = np.random.default_rng(seed)
        nuclei = NuclearConfig(rng.uniform(-0.5, 0.5, size=(1, dim)),
                               np.array([1.0]))
        state = slater_oracle(random_orthonormal(grid.total_points, eta, seed),
                              grid=grid)
        plan = EvolutionPlan(total_time=time, steps=steps, order=order)
        ham = GridHamiltonian(grid, nuclei, CoulombKernel(softening=0.5))
        out = evolve(state, plan, ham)
        assert abs(out.norm() - 1.0) <= 1e-12
        assert out.antisymmetric and out.is_antisymmetric(tol=1e-12)

    def test_energy_conserved(self):
        grid, nuclei, kernel = hydrogenic_system()
        state = ground_slater(grid, nuclei, kernel)
        e0 = total_energy(state, nuclei, kernel)
        plan = EvolutionPlan(total_time=1.0, steps=1000, order=2)
        out = evolve(state, plan, GridHamiltonian(grid, nuclei, kernel))
        assert total_energy(out, nuclei, kernel) == pytest.approx(e0, abs=1e-6)


_SUZUKI_U = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))


def unmerged_substeps(plan):
    """The product formula as (operator, time) substeps, none merged."""
    dt = plan.total_time / plan.steps
    if plan.order == 1:
        return [("T", dt), ("V", dt)] * plan.steps
    u = _SUZUKI_U
    factors = (1.0,) if plan.order == 2 else (u, u, 1.0 - 4.0 * u, u, u)
    return [sub for f in factors
            for sub in (("T", f * dt / 2), ("V", f * dt), ("T", f * dt / 2))
            ] * plan.steps


def dense_substeps(state, substeps, nuclei, kernel):
    """Reference block: a kinetic substep is the dense exp(-i T t) of
    kinetic_matrix (checked against the explicit centered DFT) on
    each register, a potential substep the phases of potential_diagonal."""
    grid, eta, n = state.grid, state.eta, state.grid.total_points
    ham = GridHamiltonian(grid, nuclei, kernel)
    w, vec = np.linalg.eigh(ham.kinetic_matrix())
    diag = potential_diagonal(ham, eta)
    block = state.tensor[(slice(0, n),) * eta]
    for op, t in substeps:
        if op == "V":
            block = block * np.exp(-1j * t * diag)
            continue
        prop = (vec * np.exp(-1j * t * w)) @ vec.conj().T
        for axis in range(eta):
            block = np.moveaxis(np.tensordot(prop, block, axes=([1], [axis])),
                                0, axis)
    return block


class TestMergedPropagator:
    @pytest.mark.parametrize("order", [1, 2, 4])
    @pytest.mark.parametrize("dim,points,eta", [
        (1, 5, 3), (1, 4, 2), (2, 3, 2), (2, 4, 2), (3, 2, 2), (3, 3, 2),
        (1, 128, 2)])  # the last takes the FFT route
    def test_matches_unmerged_dense_composition(self, dim, points, eta, order):
        grid = GridSpec(dim=dim, points_per_axis=points,
                        cell_volume=float(points ** dim))
        nuclei = NuclearConfig(np.full((1, dim), 0.3), np.array([1.0]))
        kernel = CoulombKernel(softening=0.5)
        state = slater_oracle(random_orthonormal(grid.total_points, eta, 7),
                              grid=grid)
        plan = EvolutionPlan(total_time=0.7, steps=3, order=order)
        substeps = unmerged_substeps(plan)
        reference = dense_substeps(state, substeps, nuclei, kernel)
        ham = GridHamiltonian(grid, nuclei, kernel)
        public = state
        for op, t in substeps:
            public = (apply_kinetic_evolution(public, t, ham) if op == "T" else
                      apply_potential_evolution(public, t, ham))
        block = (slice(0, grid.total_points),) * eta
        for out in (evolve(state, plan, ham), public):
            assert np.max(np.abs(out.tensor[block] - reference)) < 1e-12
            assert np.linalg.norm(out.tensor) == pytest.approx(1.0, abs=1e-12)
            assert out.antisymmetric

    def test_route_by_axis_length(self):
        """The composition cases cover both kinetic routes."""
        for points, ndim in ((64, 2), (128, 1)):
            grid = GridSpec(dim=1, points_per_axis=points, cell_volume=1.0)
            axis = free(grid).axis_kinetic()
            assert hamiltonian._kinetic_propagator(axis, 0.1).ndim == ndim

    @pytest.mark.parametrize("order,steps,kinetic", [
        (1, 3, 3), (2, 3, 3 + 1), (4, 3, 5 * 3 + 1)])
    def test_tables_once_and_half_steps_merged(self, monkeypatch, order,
                                               steps, kinetic):
        grid, nuclei, kernel = hydrogenic_system()
        state = ground_slater(grid, nuclei, kernel)
        calls = {"potential_diagonal": 0, "_kinetic_substep": 0}

        def counted(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(hamiltonian, name,
                                counted(name, getattr(hamiltonian, name)))
        evolve(state, EvolutionPlan(0.5, steps, order),
               GridHamiltonian(grid, nuclei, kernel))
        assert calls == {"potential_diagonal": 1, "_kinetic_substep": kinetic}

    @pytest.mark.parametrize("dim,points,omega,eta", [
        pytest.param(3, 7, 343, 2, id="3-7-343"),
        pytest.param(2, 24, 576, 2, id="2-24-576"),
        pytest.param(3, 4, 64, 3, id="3-4-64-eta3")])
    def test_snapshot_independent_of_blas_threads(self, tmp_path, dim, points,
                                                  omega, eta):
        """The kinetic substep is a BLAS matmul, and so is the Slater
        oracle's Laplace expansion that builds an eta >= 3 start; neither
        result may depend on how many threads BLAS splits it over."""
        src = Path(hamiltonian.__file__).resolve().parents[1]
        nuclei = tmp_path / "nuclei.txt"
        nuclei.write_text(f"1 {' '.join(['0.7'] * dim)}\n")
        snapshots = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}.bin"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(
                       filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
            subprocess.run(
                [sys.executable, "-m", "fqlab.cli", "evolve", "--dim", str(dim),
                 "--points", str(points), "--omega", str(omega), "--eta", str(eta),
                 "--nuclei", str(nuclei), "--soften", "0.5", "--time", "0.2",
                 "--steps", "2", "--order", "2", "--out", str(out)],
                env=env, cwd=tmp_path, check=True)
            snapshots.append(out.read_bytes())
        assert snapshots[0] == snapshots[1]


class TestKineticTranslationInvariance:
    """exp(-i T t) is circulant on every grid axis, which is why it may act
    on the centered window: it commutes with a cyclic shift of the grid.
    The same shift on every register keeps the state antisymmetric."""

    @pytest.mark.parametrize("dim,points,eta", [
        (1, 5, 1), (1, 4, 3), (1, 7, 2), (2, 3, 3), (2, 4, 2), (2, 5, 1),
        (3, 3, 2), (3, 2, 3), (3, 4, 1),
        (1, 128, 2), (1, 129, 2)])  # the last two take the FFT route
    def test_commutes_with_a_cyclic_shift(self, dim, points, eta):
        grid = GridSpec(dim=dim, points_per_axis=points,
                        cell_volume=float(points ** dim))
        n = grid.total_points
        state = FirstQuantizedState(
            eta, n, random_antisymmetric_state(n, eta, seed=9).tensor, grid=grid)
        axes = (points,) * (dim * eta)
        shifts = [1 + a % (points - 1) for a in range(dim)] * eta

        def shifted(tensor):
            return np.roll(tensor.reshape(axes), shifts,
                           range(dim * eta)).reshape(tensor.shape)

        ham = free(grid)
        moved = apply_kinetic_evolution(state.copy_with(shifted(state.tensor)),
                                        0.37, ham)
        evolved = apply_kinetic_evolution(state, 0.37, ham)
        assert np.max(np.abs(moved.tensor - shifted(evolved.tensor))) < 1e-13


def _zero_kernel():
    return CoulombKernel(softening=1e12)  # numerically negligible interaction


class TestTotalEnergy:
    def test_uniform_zero_momentum_state(self):
        grid = GridSpec(dim=1, points_per_axis=4, cell_volume=4.0)
        reg = np.full(4, 0.5, dtype=complex)
        state = FirstQuantizedState(1, 4, reg, grid=grid)
        free = NuclearConfig.empty(1)
        assert total_energy(state, free, _zero_kernel()) == pytest.approx(0.0, abs=1e-10)

    def test_matches_dense_quadratic_form(self):
        grid, nuclei, kernel = hydrogenic_system(points=6, volume=6.0)
        state = ground_slater(grid, nuclei, kernel)
        grid_ham = GridHamiltonian(grid, nuclei, kernel)
        ham = dense_hamiltonian(grid_ham, 2)
        quad = np.vdot(state.amplitudes, ham @ state.amplitudes)
        direct = total_energy(state, nuclei, kernel)
        assert direct == pytest.approx(quad.real + grid_ham.nuclear_repulsion(),
                                       abs=1e-10)
        assert abs(quad.imag) < 1e-10


class TestSlabwiseExpectations:
    """<T> and <U + V> read a slab at a time agree with the whole-tensor
    sums: the full-block momentum density against the sum of the per-
    register |k|^2/2 tables, and the density against potential_diagonal."""

    @pytest.mark.parametrize("dim,points,eta", [
        (1, 5, 1), (1, 6, 2), (2, 3, 2), (3, 3, 2), (1, 5, 3), (2, 2, 3)])
    def test_agree_with_whole_tensor_sums(self, monkeypatch, dim, points, eta):
        monkeypatch.setattr(states, "SLAB_ENTRIES", 8)  # several slabs each
        grid = GridSpec(dim=dim, points_per_axis=points,
                        cell_volume=float(points ** dim))
        n = grid.total_points
        state = FirstQuantizedState(
            eta, n, random_antisymmetric_state(n, eta, seed=5).tensor, grid=grid)
        nuclei = NuclearConfig(np.full((1, dim), 0.4), np.array([2.0]))
        ham = GridHamiltonian(grid, nuclei, CoulombKernel(softening=0.5))
        block = state.tensor
        axes = (points,) * (dim * eta)
        windowed = np.fft.ifftshift(block.reshape(axes))
        density = np.abs(np.fft.fftn(windowed, norm="ortho")) ** 2
        table = kinetic_phase_table(grid)
        tables = sum(hamiltonian._on_registers(table, eta, j) for j in range(eta))
        kinetic = np.sum(density * np.fft.ifftshift(tables.reshape(axes)))
        assert kinetic_expectation(state) == pytest.approx(kinetic, rel=1e-13)
        potential = np.sum(np.abs(block) ** 2 * potential_diagonal(ham, eta))
        assert potential_expectation(state, ham) == pytest.approx(potential,
                                                                  rel=1e-13)


class TestGridHamiltonian:
    def test_nuclei_of_another_dimension_refused(self):
        grid = GridSpec(dim=1, points_per_axis=4, cell_volume=4.0)
        nuclei = NuclearConfig(np.array([[0.3, 0.2]]), np.array([1.0]))
        with pytest.raises(ValidationError, match="dimension"):
            GridHamiltonian(grid, nuclei, BARE)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("volume,nucleus", [
        (1e300, 0.3),     # grid distances up to 8.75e299: squares overflow
        (8.0, 1e308),     # a nucleus at 1e308
        (8.0, -1e155)])   # 1e155^2 overflows too
    def test_geometry_whose_distances_overflow_refused(self, volume, nucleus):
        grid = GridSpec(dim=1, points_per_axis=8, cell_volume=volume)
        nuclei = NuclearConfig(np.array([[nucleus]]), np.array([1.0]))
        with pytest.raises(ValidationError, match="distances .* overflow"):
            GridHamiltonian(grid, nuclei, BARE)

    @pytest.mark.filterwarnings("error")
    def test_distances_below_the_bound_taken_without_overflow(self):
        # 3 (2 * 3e153)^2 = 1.08e308: accepted, and every table is finite
        grid = GridSpec(dim=3, points_per_axis=3, cell_volume=27.0)
        nuclei = NuclearConfig(np.array([[3e153, -3e153, 0.0],
                                         [0.0, 3e153, -3e153]]),
                               np.array([1.0, 1.0]))
        ham = GridHamiltonian(grid, nuclei, CoulombKernel(0.5))
        for table in (ham.nuclear(), ham.pair(), ham.nuclear_repulsion()):
            assert np.all(np.isfinite(table))

    def test_evolution_refuses_a_hamiltonian_on_another_grid(self):
        grid, nuclei, kernel = hydrogenic_system()
        state = ground_slater(grid, nuclei, kernel)
        other = GridSpec(dim=1, points_per_axis=8, cell_volume=9.0)
        with pytest.raises(ValidationError, match="grid"):
            evolve(state, EvolutionPlan(0.1, 1), free(other))

    def test_one_particle_evolution_builds_no_pair_table(self):
        # 1-D N = 4096: V would be 4096^2 float64 = 134 MB; eta = 1 has no
        # pairs, so U, the kinetic phases and the state are all it needs
        grid = GridSpec(dim=1, points_per_axis=4096, cell_volume=4096.0)
        rng = np.random.default_rng(11)
        reg = rng.normal(size=4096) + 1j * rng.normal(size=4096)
        state = FirstQuantizedState(1, 4096, reg / np.linalg.norm(reg),
                                    grid=grid)
        nuclei = NuclearConfig(np.array([[0.3]]), np.array([1.0]))
        ham = GridHamiltonian(grid, nuclei, CoulombKernel(softening=0.5))
        tracemalloc.start()
        try:
            out = evolve(state, EvolutionPlan(0.2, 2, 2), ham)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.norm() == pytest.approx(1.0, abs=1e-12)
        assert peak < 4 * 2 ** 20

    @pytest.mark.parametrize("name,build", [
        ("pair table V", lambda ham: ham.pair()),
        ("kinetic matrix", lambda ham: ham.kinetic_matrix())])
    def test_square_table_above_the_dense_budget_refused_before_allocating(
            self, monkeypatch, name, build):
        # N = 4097: an N x N table holds more than 2^24 entries
        ham = free(GridSpec(dim=1, points_per_axis=4097, cell_volume=4097.0),
                   CoulombKernel(0.5))

        def built(*args, **kwargs):
            raise AssertionError(f"{name} started before the size check")
        monkeypatch.setattr(np, "meshgrid", built)  # the pair table's first
        monkeypatch.setattr(hamiltonian, "_axis_operator", built)  # T's first
        with pytest.raises(BruteForceLimitExceeded,
                           match=f"4097 x 4097 {name}"):
            build(ham)


class TestPlanValidation:
    def test_order_must_be_supported(self):
        with pytest.raises(ValidationError):
            EvolutionPlan(total_time=1.0, steps=5, order=3)

    def test_steps_positive(self):
        with pytest.raises(ValidationError):
            EvolutionPlan(total_time=1.0, steps=0)


@pytest.mark.parametrize("call,error,message", [
    (lambda: NuclearConfig(np.zeros((2, 1)), np.ones(1)), ValidationError,
     "positions/charges length mismatch"),
    (lambda: NuclearConfig([[np.nan]], [1.0]), ValidationError,
     "nuclear positions must be finite"),
    (lambda: CoulombKernel(softening=-1.0), ValidationError,
     "softening must be nonnegative"),
    (lambda: BARE(np.array([1.0, 0.0])), SingularPotential,
     "bare Coulomb kernel at zero separation"),
    (lambda: GridHamiltonian(GridSpec(1, 4, 4.0),
                             NuclearConfig([[0.5], [0.5]], [1.0, 1.0]),
                             BARE).nuclear_repulsion(),
     SingularPotential, "coincident nuclei"),
    (lambda: evolve(random_antisymmetric_state(4, 2, seed=1),
                    EvolutionPlan(0.1, 1), free(GridSpec(1, 4, 4.0))),
     ValidationError, "evolution requires a grid-backed state"),
    (lambda: evolve_block(np.zeros((3, 3), dtype=complex),
                          EvolutionPlan(0.1, 1), free(GridSpec(1, 4, 4.0))),
     ValidationError, "a block of shape (3, 3) is not N^eta with N = 4"),
], ids=["nuclei-lengths", "nuclei-not-finite", "negative-softening",
        "bare-kernel-at-zero", "coincident-nuclei", "state-without-grid",
        "block-not-n-to-the-eta"])
def test_refusals_name_their_check(call, error, message):
    refuses(call, error, message)
