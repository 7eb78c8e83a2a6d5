"""RT-TDHF baseline: Fock builds, integrators, norms, cross-module checks."""

import math
import tracemalloc

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from fqlab.errors import (
    ConvergenceFailure,
    DimensionMismatch,
    NonOrthonormalInput,
    ValidationError,
)
from fqlab.grids import GridSpec
from fqlab.hamiltonian import (CoulombKernel, GridHamiltonian, NuclearConfig,
                               kinetic_phase_table, total_energy)
from fqlab.meanfield import (
    FockOperator,
    GridIntegrals,
    OccupiedOrbitals,
    TdhfPlan,
    build_fock,
    evolve_tdhf,
    hf_energy,
    mean_field_1rdm,
    tdhf_step,
    _exp_action,
    _taylor_action,
    _taylor_plan,
)
from fqlab import states
from fqlab.states import exact_krdm_element, slater_oracle

from conftest import fock_spectral_norm, random_orthonormal


def model_system(points=16, volume=32.0, soften=1.0, charge=2.0):
    grid = GridSpec(dim=1, points_per_axis=points, cell_volume=volume)
    nuclei = NuclearConfig(np.array([[0.5]]), np.array([charge]))
    kernel = CoulombKernel(softening=soften)
    integrals = GridIntegrals.from_grid(GridHamiltonian(grid, nuclei, kernel))
    _, vecs = np.linalg.eigh(integrals.h)
    return grid, integrals, OccupiedOrbitals(vecs[:, :2], grid)


def test_occupied_orbitals_refuse_a_grid_of_another_size():
    with pytest.raises(NonOrthonormalInput, match="4 rows for 5 grid points"):
        OccupiedOrbitals(np.eye(4)[:, :2], GridSpec(1, 5, 5.0))


class TestBuildFock:
    def test_empty_occupation_gives_core(self):
        n = 5
        h = np.diag(np.arange(n, dtype=float)).astype(complex)
        v = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) * 0.3
        ints = GridIntegrals(axis=h, v=v)
        empty = OccupiedOrbitals(np.zeros((n, 0)))
        assert np.allclose(build_fock(empty, ints), h)
        assert fock_spectral_norm(empty, ints) == pytest.approx(
            np.linalg.norm(h, ord=2))

    def test_single_electron_constant_kernel(self):
        # P = e_0 e_0^T with v = c everywhere: Coulomb adds c to every
        # diagonal entry, exchange removes c/2 at (0, 0).
        n, c = 4, 0.7
        ints = GridIntegrals(axis=np.zeros((n, n), dtype=complex),
                             v=np.full((n, n), c))
        orb = OccupiedOrbitals(np.eye(n)[:, :1])
        f = build_fock(orb, ints)
        expected = c * np.eye(n)
        expected[0, 0] -= c / 2
        assert np.allclose(f, expected, atol=1e-14)

    def test_hermitian(self):
        _, ints, orb = model_system()
        f = build_fock(orb, ints)
        assert np.max(np.abs(f - f.conj().T)) < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 64), eta=st.integers(1, 4), k=st.integers(1, 3),
           scale=st.floats(0.01, 100.0), seed=st.integers(0, 2 ** 16))
    def test_hermitian_and_equal_to_the_operator_on_random_orbitals(
            self, n, eta, k, scale, seed):
        eta, k = min(eta, n), min(k, n)
        rng = np.random.default_rng(seed)
        h = scale * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        v = scale * np.abs(rng.normal(size=(n, n)))
        ints = GridIntegrals(axis=(h + h.conj().T) / 2, v=(v + v.T) / 2)
        c = random_orthonormal(n, eta, seed)
        f = build_fock(OccupiedOrbitals(c), ints)
        tol = 1e-12 * max(1.0, np.linalg.norm(f, 2))
        assert np.max(np.abs(f - f.conj().T)) <= tol
        x = random_orthonormal(n, k, seed + 1)
        assert np.max(np.abs(FockOperator(c, ints)(x) - f @ x)) <= tol

    def test_basis_covariance_under_grid_relabeling(self):
        n = 6
        rng = np.random.default_rng(4)
        h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = (h + h.conj().T) / 2
        v = np.abs(rng.normal(size=(n, n)))
        v = (v + v.T) / 2
        perm = rng.permutation(n)
        pmat = np.eye(n)[perm]
        coeffs = random_orthonormal(n, 2, seed=3)
        f = build_fock(OccupiedOrbitals(coeffs), GridIntegrals(axis=h, v=v))
        f_perm = build_fock(
            OccupiedOrbitals(pmat @ coeffs),
            GridIntegrals(axis=pmat @ h @ pmat.T, v=pmat @ v @ pmat.T))
        assert np.max(np.abs(f_perm - pmat @ f @ pmat.T)) < 1e-12

    def test_dimension_mismatch(self):
        ints = GridIntegrals(axis=np.zeros((4, 4), dtype=complex),
                             v=np.zeros((4, 4)))
        with pytest.raises(DimensionMismatch):
            build_fock(OccupiedOrbitals(np.eye(5)[:, :2]), ints)


class TestGridIntegrals:
    def test_grid_h_is_real(self):
        _, ints, _ = model_system()
        assert ints.h.dtype == np.float64

    @pytest.mark.parametrize("field", ["h", "v"])
    def test_non_finite_entries_refused(self, field):
        arrays = {"h": np.eye(3), "v": np.ones((3, 3))}
        arrays[field][1, 1] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            GridIntegrals(arrays["h"], arrays["v"])

    @pytest.mark.parametrize("entry,value", [
        ((0, 2), 1 + 1e-9), ((2, 0), 1 + 1e-9), ((1, 1), -1e-9)])
    def test_asymmetric_or_negative_v_refused(self, monkeypatch, entry, value):
        # one row per slab: the odd entry lies above or below the diagonal
        monkeypatch.setattr(states, "SLAB_ENTRIES", 3)
        v = np.ones((3, 3))
        v[entry] = value
        with pytest.raises(ValidationError, match="symmetric and nonnegative"):
            GridIntegrals(axis=np.eye(3), v=v)
        if value > 0:
            v[entry[::-1]] = value  # symmetric again
            GridIntegrals(axis=np.eye(3), v=v)


def gershgorin(h):
    """h's Gershgorin center and radius, from the dense matrix."""
    off = np.abs(h).sum(axis=1) - np.abs(h.diagonal())
    lo = float(np.min(h.diagonal().real - off))
    hi = float(np.max(h.diagonal().real + off))
    return (hi + lo) / 2, (hi - lo) / 2


def nuclear_grid(dim, points, softening=0.5, with_nuclei=True):
    """H on a grid of spacing about 1; the nuclei sit off the lattice, so
    the bare kernel stays regular."""
    grid = GridSpec(dim=dim, points_per_axis=points,
                    cell_volume=1.1 * points ** dim)
    nuclei = (NuclearConfig(np.array([[0.3 * grid.spacing] * dim,
                                      [-0.6 * grid.spacing] * dim]),
                            np.array([1.0, 2.0]))
              if with_nuclei else NuclearConfig.empty(dim))
    return GridHamiltonian(grid, nuclei, CoulombKernel(softening=softening))


class TestStructuredOneBody:
    """On a grid the integrals keep h as one axis matrix per grid axis
    plus the nuclear diagonal; a dense h is built only when read."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("points", range(2, 9))
    def test_action_and_bounds_match_the_dense_h(self, dim, points):
        ham = nuclear_grid(dim, points)
        ints = GridIntegrals.from_grid(ham)
        h = ham.kinetic_matrix() + np.diag(ham.nuclear())
        x = random_orthonormal(ham.grid.total_points, 3, points) * (2 - 1j)
        got = ints.one_body(x, ints.diagonal)
        assert np.max(np.abs(got - h @ x)) <= 1e-13 * np.linalg.norm(h, 2)
        center, radius = gershgorin(h)
        scale = 4 * np.finfo(float).eps * np.abs(h).sum(axis=1).max()
        assert abs(ints.h_center - center) <= scale
        assert abs(ints.h_radius - radius) <= scale

    @pytest.mark.parametrize("dim,points", [(1, 8), (2, 5), (3, 4), (3, 7)])
    def test_dense_h_is_the_one_the_kinetic_matrix_gives(self, dim, points):
        # the core guess diagonalizes this matrix: T, then U on the diagonal
        ham = nuclear_grid(dim, points)
        h = ham.kinetic_matrix()
        h[np.diag_indices_from(h)] += ham.nuclear()
        assert np.array_equal(GridIntegrals.from_grid(ham).h, h)

    def test_dense_h_is_the_form_with_one_axis(self):
        ham = nuclear_grid(2, 4)
        grid_ints = GridIntegrals.from_grid(ham)
        dense = GridIntegrals(grid_ints.h, grid_ints.v)
        assert (dense.axis.shape, dense.dim) == ((16, 16), 1)
        assert np.array_equal(dense.diagonal, np.zeros(16))
        assert np.array_equal(dense.h, grid_ints.h)
        orb = OccupiedOrbitals(random_orthonormal(16, 2, seed=1))
        x = random_orthonormal(16, 2, seed=2)
        assert np.max(np.abs(FockOperator(orb.coeffs, dense)(x)
                             - FockOperator(orb.coeffs, grid_ints)(x))) < 1e-13

    def test_diagonal_of_another_length_refused(self):
        with pytest.raises(DimensionMismatch):
            GridIntegrals(axis=np.eye(2), dim=2, diagonal=np.ones(2),
                          v=np.ones((4, 4)))


class TestTdhfStep:
    def test_zero_timestep_identity(self):
        _, ints, orb = model_system()
        out = tdhf_step(orb, ints, 0.0)
        assert np.array_equal(out.coeffs, orb.coeffs)

    def test_non_interacting_limit_exact(self):
        _, ints, orb = model_system()
        ints0 = GridIntegrals(axis=ints.h, v=np.zeros_like(ints.v))
        out = tdhf_step(orb, ints0, 0.05)
        w, vec = np.linalg.eigh(ints.h)
        exact = (vec * np.exp(-1j * w * 0.05)) @ vec.conj().T @ orb.coeffs
        assert np.max(np.abs(out.coeffs - exact)) < 1e-12

    def test_projector_stays_idempotent(self):
        _, ints, orb = model_system()
        current = orb
        for _ in range(200):
            current = tdhf_step(current, ints, 1e-3)
        p = mean_field_1rdm(current)
        assert np.linalg.norm(p @ p - p) < 1e-8

    def test_midpoint_diverges_on_absurd_timestep(self):
        _, ints, orb = model_system()
        with pytest.raises(ConvergenceFailure):
            tdhf_step(orb, ints, 200.0)

    @pytest.mark.parametrize("dt", [3.0, 1e6])
    def test_long_step_matches_eigh(self, dt):
        # non-interacting, so the midpoint step is exp(-i h dt) exactly
        _, ints, orb = model_system()
        free = GridIntegrals(axis=ints.h, v=np.zeros_like(ints.v))
        out = tdhf_step(orb, free, dt)
        w, vec = np.linalg.eigh(ints.h)
        exact = (vec * np.exp(-1j * w * dt)) @ vec.conj().T @ orb.coeffs
        assert np.max(np.abs(out.coeffs - exact)) < 1e-12 * max(1.0, dt)

    def test_eigh_only_when_the_series_costs_more(self, monkeypatch):
        _, ints, orb = model_system()
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda a: calls.append(a.shape) or eigh(a))
        evolve_tdhf(orb, ints, TdhfPlan(0.1, 10))
        assert calls == []
        free = GridIntegrals(axis=ints.h, v=np.zeros_like(ints.v))
        tdhf_step(orb, free, 1e6)
        assert calls and set(calls) == {(16, 16)}

    def test_non_finite_step_refused(self):
        _, ints, orb = model_system()
        with pytest.raises(ConvergenceFailure, match="not finite"):
            tdhf_step(orb, ints, np.inf)



class DenseOperator:
    """A Hermitian matrix in the operator form that _exp_action takes."""

    def __init__(self, a, center, radius):
        self.a, self.center, self.radius = a, center, radius

    def __call__(self, x):
        return self.a @ x

    def matrix(self):
        return self.a


def random_hermitian(n, norm, seed):
    """Random complex Hermitian n x n matrix scaled to 1-norm ``norm``."""
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a = (m + m.conj().T) / 2
    return a * (norm / np.linalg.norm(a, 1))


class TestExpAction:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 8), eta=st.integers(1, 4),
           log_norm=st.floats(-3.0, np.log10(300.0)),
           dt=st.sampled_from([1.0, -0.5, 2.0]),
           seed=st.integers(0, 2 ** 16))
    def test_matches_eigh_and_stays_orthonormal(self, n, eta, log_norm, dt,
                                                seed):
        # exp(-i dt A) with A = a / dt, centered at tr(A) / n
        eta = min(eta, n)
        a = random_hermitian(n, 10.0 ** log_norm, seed)
        c = random_orthonormal(n, eta, seed)
        w, vec = np.linalg.eigh(a)
        exact = (vec * np.exp(-1j * w)) @ vec.conj().T @ c
        mu = np.trace(a).real / n / dt
        op = DenseOperator(a / dt, mu,
                           np.linalg.norm(a / dt - mu * np.eye(n), 1))
        out = _exp_action(op, c, dt)
        assert np.max(np.abs(out - exact)) < 1e-12
        assert np.max(np.abs(out.conj().T @ out - np.eye(eta))) < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 8), eta=st.integers(1, 4),
           log_norm=st.floats(-3.0, 3.0), seed=st.integers(0, 2 ** 16))
    def test_taylor_series_matches_eigh(self, n, eta, log_norm, seed):
        # the series alone, uncentered, at norms where _exp_action would
        # take eigh
        eta = min(eta, n)
        a = random_hermitian(n, 10.0 ** log_norm, seed)
        c = random_orthonormal(n, eta, seed)
        w, vec = np.linalg.eigh(a)
        exact = (vec * np.exp(-1j * w)) @ vec.conj().T @ c
        norm = np.linalg.norm(a, 1)
        out = _taylor_action(DenseOperator(a, 0.0, norm), c, 1.0,
                             _taylor_plan(norm))
        assert np.max(np.abs(out - exact)) < 1e-14 * max(1.0, norm)

    @pytest.mark.parametrize("norm,plan", [
        (0.0, (1, 1)), (0.4, (1, 13)), (17.4, (5, 29)), (868.4, (219, 30))])
    def test_plan_fewest_products_within_the_bound(self, norm, plan):
        s, m = _taylor_plan(norm)
        assert (s, m) == plan
        # s substeps, each truncated at degree m, err by at most 2^-53 ||a||_1
        assert s * (norm / s) ** (m + 1) / math.factorial(m + 1) <= 2.0 ** -53 * norm

    def test_zero_operator_is_identity(self):
        c = random_orthonormal(5, 2, seed=1)
        op = DenseOperator(np.zeros((5, 5)), 0.0, 0.0)
        assert np.array_equal(_exp_action(op, c, 1.0), c)


def grid_system(dim, points, softening, with_nuclei, eta, seed=0):
    """Integrals on :func:`nuclear_grid` and random orbitals."""
    ham = nuclear_grid(dim, points, softening, with_nuclei)
    coeffs = random_orthonormal(ham.grid.total_points, eta, seed)
    return GridIntegrals.from_grid(ham), OccupiedOrbitals(coeffs, ham.grid)


class TestFockOperator:
    @pytest.mark.parametrize("dim,points", [(1, 7), (1, 8), (2, 3), (2, 4),
                                            (3, 3), (3, 4)])
    @pytest.mark.parametrize("softening", [0.0, 0.5])
    @pytest.mark.parametrize("with_nuclei", [False, True])
    def test_action_matches_dense_fock(self, dim, points, softening,
                                       with_nuclei):
        for eta in range(1, 5):
            ints, orb = grid_system(dim, points, softening, with_nuclei, eta,
                                    seed=eta)
            x = random_orthonormal(orb.n_basis, 3, seed=10 + eta) * (2 - 1j)
            op = FockOperator(orb.coeffs, ints)
            fock = build_fock(orb, ints)
            for block in (orb.coeffs, x):
                assert np.max(np.abs(op(block) - fock @ block)) < 1e-12

    def test_complex_h_takes_the_complex_product(self):
        n = 6
        rng = np.random.default_rng(5)
        h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        v = np.abs(rng.normal(size=(n, n)))
        ints = GridIntegrals(axis=(h + h.conj().T) / 2, v=(v + v.T) / 2)
        orb = OccupiedOrbitals(random_orthonormal(n, 2, seed=6))
        op = FockOperator(orb.coeffs, ints)
        assert np.max(np.abs(op(orb.coeffs)
                             - build_fock(orb, ints) @ orb.coeffs)) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(shape=st.sampled_from([(1, 2), (1, 5), (1, 8), (2, 3), (2, 4),
                                  (3, 2), (3, 3)]),
           softening=st.sampled_from([0.0, 0.2, 1.5]),
           with_nuclei=st.booleans(), eta=st.integers(1, 4),
           seed=st.integers(0, 2 ** 16))
    def test_radius_bounds_the_spectrum(self, shape, softening, with_nuclei,
                                        eta, seed):
        dim, points = shape
        eta = min(eta, points ** dim)
        ints, orb = grid_system(dim, points, softening, with_nuclei, eta,
                                seed)
        op = FockOperator(orb.coeffs, ints)
        w = np.linalg.eigvalsh(build_fock(orb, ints))
        assert np.max(np.abs(w - op.center)) <= op.radius * (1 + 1e-12)

    def test_dimension_mismatch(self):
        ints = GridIntegrals(axis=np.zeros((4, 4)), v=np.zeros((4, 4)))
        with pytest.raises(DimensionMismatch):
            FockOperator(np.eye(5)[:, :2], ints)

    def test_short_steps_allocate_less_than_one_dense_matrix(self):
        # N = 729: one real N x N matrix is 8 N^2 bytes; a Fock build,
        # a density matrix or an eigh would each take more
        grid = GridSpec(dim=3, points_per_axis=9, cell_volume=729.0)
        nuclei = NuclearConfig(np.array([[0.7, 0.0, 0.0], [-0.7, 0.0, 0.0]]),
                               np.ones(2))
        ints = GridIntegrals.from_grid(
            GridHamiltonian(grid, nuclei, CoulombKernel(0.5)))
        _, vecs = np.linalg.eigh(ints.h)
        orb = OccupiedOrbitals(vecs[:, :2], grid)
        tracemalloc.start()
        try:
            traj = evolve_tdhf(orb, ints, TdhfPlan(0.5, 10))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(traj.energies) == 11
        assert peak < 8 * grid.total_points ** 2


class TestEvolveTdhf:
    def test_fixed_point_iterations_recorded(self):
        _, ints, orb = model_system()
        traj = evolve_tdhf(orb, ints, TdhfPlan(0.5, 10))
        assert traj.fp_iterations.shape == (10,)
        assert np.all(traj.fp_iterations >= 1)
        assert np.all(traj.fp_iterations <= 20)  # MIDPOINT_ITERATIONS

    def test_energy_conserved(self):
        _, ints, orb = model_system()
        traj = evolve_tdhf(orb, ints, TdhfPlan(1.0, 500), keep_history=False)
        assert np.max(np.abs(traj.energies - traj.energies[0])) < 1e-6

    def test_trace_constant(self):
        _, ints, orb = model_system()
        traj = evolve_tdhf(orb, ints, TdhfPlan(0.2, 50))
        for snapshot in traj.orbital_history[::10]:
            assert np.trace(mean_field_1rdm(snapshot)).real == pytest.approx(
                2.0, abs=1e-10)

    def test_halving_step_quarters_error(self):
        _, ints, orb = model_system()
        ref = evolve_tdhf(orb, ints, TdhfPlan(0.5, 1024),
                          keep_history=False).final.coeffs
        errors = []
        for steps in (16, 32, 64):
            out = evolve_tdhf(orb, ints, TdhfPlan(0.5, steps),
                              keep_history=False).final.coeffs
            errors.append(np.linalg.norm(out - ref))
        for a, b in zip(errors, errors[1:]):
            assert a / b == pytest.approx(4.0, rel=0.3)

    def test_self_convergence_order_two(self):
        _, ints, orb = model_system()
        ref = evolve_tdhf(orb, ints, TdhfPlan(0.5, 2048),
                          keep_history=False).final.coeffs
        steps = np.array([16, 32, 64, 128])
        errors = np.array([
            np.linalg.norm(evolve_tdhf(orb, ints, TdhfPlan(0.5, int(s)),
                                       keep_history=False).final.coeffs - ref)
            for s in steps])
        slope = np.polyfit(np.log(0.5 / steps), np.log(errors), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.3)

    def test_rdm_diag_recording(self):
        _, ints, orb = model_system(points=8, volume=16.0)
        traj = evolve_tdhf(orb, ints, TdhfPlan(0.1, 5), record_rdm_diag=True)
        assert traj.rdm_diagonals.shape == (6, 8)
        assert np.allclose(traj.rdm_diagonals.sum(axis=1), 2.0, atol=1e-10)


class TestNorms:
    def test_free_norm_is_max_kinetic(self):
        grid = GridSpec(dim=1, points_per_axis=9, cell_volume=9.0)
        ints = GridIntegrals.from_grid(
            GridHamiltonian(grid, NuclearConfig.empty(1), CoulombKernel()))
        empty = OccupiedOrbitals(np.zeros((9, 0)), grid)
        expected = kinetic_phase_table(grid).max()
        assert fock_spectral_norm(empty, ints) == pytest.approx(
            expected, rel=1e-10)

    def test_envelope_ratio_bounded_on_small_sweep(self):
        ratios = []
        for m, eta in [(3, 2), (5, 3)]:
            grid = GridSpec(dim=3, points_per_axis=m, cell_volume=float(eta))
            ints = GridIntegrals.from_grid(
                GridHamiltonian(grid, NuclearConfig.empty(3), CoulombKernel()))
            envelope = eta ** (2 / 3) / grid.spacing + 1 / grid.spacing ** 2
            for seed in range(5):
                orb = OccupiedOrbitals(
                    random_orthonormal(grid.total_points, eta, seed), grid)
                ratios.append(fock_spectral_norm(orb, ints) / envelope)
        assert max(ratios) < 12.0


class TestMeanField1Rdm:
    def test_identity_columns(self):
        orb = OccupiedOrbitals(np.eye(5)[:, :3])
        assert np.allclose(mean_field_1rdm(orb),
                           np.diag([1, 1, 1, 0, 0]), atol=1e-14)

    def test_projector_spectrum(self):
        orb = OccupiedOrbitals(random_orthonormal(6, 2, seed=8))
        eigs = np.linalg.eigvalsh(mean_field_1rdm(orb))
        assert np.all(np.minimum(np.abs(eigs), np.abs(eigs - 1)) < 1e-10)

    @pytest.mark.parametrize("n_orbitals,eta", [(4, 2), (6, 3), (8, 2)])
    def test_matches_first_quantized_oracle(self, n_orbitals, eta):
        coeffs = random_orthonormal(n_orbitals, eta, seed=n_orbitals)
        p = mean_field_1rdm(OccupiedOrbitals(coeffs))
        state = slater_oracle(coeffs)
        for mu in range(n_orbitals):
            for nu in range(n_orbitals):
                exact = exact_krdm_element(state, (mu,), (nu,), check=False)
                assert abs(p[mu, nu] - exact) < 1e-9


class TestHfEnergy:
    def test_single_determinant_energy_identity(self):
        # E = Tr[h P] + (1/2) Tr[(J - K/2)[P] P]; compare against a direct
        # contraction of the diagonal two-body tensor.
        n = 6
        rng = np.random.default_rng(11)
        h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = (h + h.conj().T) / 2
        v = np.abs(rng.normal(size=(n, n)))
        v = (v + v.T) / 2
        ints = GridIntegrals(axis=h, v=v)
        coeffs = random_orthonormal(n, 2, seed=2)
        p = coeffs @ coeffs.conj().T  # the Fock-side density
        d = np.real(np.diag(p))
        direct = (np.trace(h @ p).real
                  + 0.5 * (d @ v @ d)
                  - 0.25 * np.sum(v * np.abs(p.T) ** 2))
        assert hf_energy(OccupiedOrbitals(coeffs), ints) == pytest.approx(
            direct, abs=1e-10)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "CHANGES.md FOUND line: the Fock operator of spinless electrons carries "
    "half the exchange, h + J - K/2 for h + J - K"))
def test_hf_energy_of_a_determinant_is_its_exact_energy():
    # a determinant's mean-field energy is its exact energy: <T + U + V>
    # of the antisymmetrized block plus the nuclear repulsion
    kernel = CoulombKernel(softening=0.5)
    for dim, points, eta in ((1, 5, 1), (1, 6, 2), (1, 7, 3), (2, 3, 2)):
        grid = GridSpec(dim, points, float(points ** dim))
        nuclei = NuclearConfig(np.full((1, dim), 0.3), np.array([1.0]))
        ham = GridHamiltonian(grid, nuclei, kernel)
        coeffs = random_orthonormal(grid.total_points, eta, seed=0)
        mean_field = hf_energy(OccupiedOrbitals(coeffs, grid),
                               GridIntegrals.from_grid(ham))
        exact = total_energy(slater_oracle(coeffs, grid), nuclei, kernel)
        assert mean_field == pytest.approx(exact, abs=1e-12), (dim, eta)
