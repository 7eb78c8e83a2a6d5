"""RT-TDHF baseline: Fock builds, integrators, norms, cross-module checks."""

import math

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from fqlab.errors import (
    ConvergenceFailure,
    DimensionMismatch,
    OrbitalDrift,
    ValidationError,
)
from fqlab.grids import GridSpec
from fqlab.hamiltonian import CoulombKernel, NuclearConfig, kinetic_phase_table
from fqlab.meanfield import (
    GridIntegrals,
    OccupiedOrbitals,
    TdhfPlan,
    build_fock,
    evolve_tdhf,
    fock_spectral_norm,
    hf_energy,
    mean_field_1rdm,
    tdhf_step,
    _exp_action,
    _taylor_action,
    _taylor_plan,
)
from fqlab.states import exact_krdm_element, slater_oracle

from conftest import random_orthonormal


def model_system(points=16, volume=32.0, soften=1.0, charge=2.0):
    grid = GridSpec(dim=1, points_per_axis=points, cell_volume=volume)
    nuclei = NuclearConfig(np.array([[0.5]]), np.array([charge]))
    kernel = CoulombKernel(softening=soften)
    integrals = GridIntegrals.from_grid(grid, nuclei, kernel)
    _, vecs = np.linalg.eigh(integrals.h)
    return grid, integrals, OccupiedOrbitals(vecs[:, :2], grid)


class TestBuildFock:
    def test_empty_occupation_gives_core(self):
        n = 5
        h = np.diag(np.arange(n, dtype=float)).astype(complex)
        v = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) * 0.3
        ints = GridIntegrals(h=h, v=v)
        empty = OccupiedOrbitals(np.zeros((n, 0)))
        assert np.allclose(build_fock(empty, ints), h)
        assert fock_spectral_norm(empty, ints) == pytest.approx(
            np.linalg.norm(h, ord=2))

    def test_single_electron_constant_kernel(self):
        # P = e_0 e_0^T with v = c everywhere: Coulomb adds c to every
        # diagonal entry, exchange removes c/2 at (0, 0).
        n, c = 4, 0.7
        ints = GridIntegrals(h=np.zeros((n, n), dtype=complex),
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
        f = build_fock(OccupiedOrbitals(coeffs), GridIntegrals(h=h, v=v))
        f_perm = build_fock(
            OccupiedOrbitals(pmat @ coeffs),
            GridIntegrals(h=pmat @ h @ pmat.T, v=pmat @ v @ pmat.T))
        assert np.max(np.abs(f_perm - pmat @ f @ pmat.T)) < 1e-12

    def test_dimension_mismatch(self):
        ints = GridIntegrals(h=np.zeros((4, 4), dtype=complex),
                             v=np.zeros((4, 4)))
        with pytest.raises(DimensionMismatch):
            build_fock(OccupiedOrbitals(np.eye(5)[:, :2]), ints)


class TestTdhfStep:
    def test_zero_timestep_identity(self):
        _, ints, orb = model_system()
        out = tdhf_step(orb, ints, 0.0)
        assert np.array_equal(out.coeffs, orb.coeffs)

    def test_non_interacting_limit_exact(self):
        _, ints, orb = model_system()
        ints0 = GridIntegrals(h=ints.h, v=np.zeros_like(ints.v))
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

    def test_rk4_matches_midpoint_at_small_step(self):
        _, ints, orb = model_system()
        a = tdhf_step(orb, ints, 1e-3, scheme="exponential-midpoint")
        b = tdhf_step(orb, ints, 1e-3, scheme="rk4")
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-10

    def test_rk4_drift_is_a_numerical_failure(self):
        # a step far too long for RK4: the update is not unitary
        _, ints, orb = model_system()
        with pytest.raises(OrbitalDrift, match="exponential-midpoint"):
            tdhf_step(orb, ints, 0.5, scheme="rk4")

    @pytest.mark.parametrize("dt", [3.0, 1e6])
    def test_long_step_matches_eigh(self, dt):
        # non-interacting, so the midpoint step is exp(-i h dt) exactly
        _, ints, orb = model_system()
        free = GridIntegrals(h=ints.h, v=np.zeros_like(ints.v))
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
        tdhf_step(orb, GridIntegrals(h=ints.h, v=np.zeros_like(ints.v)), 1e6)
        assert calls and set(calls) == {(16, 16)}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_step_refused(self):
        _, ints, orb = model_system()
        with pytest.raises(ConvergenceFailure, match="not finite"):
            tdhf_step(orb, ints, np.inf)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValidationError):
            TdhfPlan(total_time=1.0, steps=2, scheme="verlet")


class TestExpAction:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 8), eta=st.integers(1, 4),
           log_norm=st.floats(-3.0, np.log10(300.0)),
           seed=st.integers(0, 2 ** 16))
    def test_matches_eigh_and_stays_orthonormal(self, n, eta, log_norm, seed):
        eta = min(eta, n)
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = (m + m.conj().T) / 2
        a *= 10.0 ** log_norm / np.linalg.norm(a, 1)
        c = random_orthonormal(n, eta, seed)
        w, vec = np.linalg.eigh(a)
        exact = (vec * np.exp(-1j * w)) @ vec.conj().T @ c
        out = _exp_action(a, c)
        assert np.max(np.abs(out - exact)) < 1e-12
        assert np.max(np.abs(out.conj().T @ out - np.eye(eta))) < 1e-12

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 8), eta=st.integers(1, 4),
           log_norm=st.floats(-3.0, 3.0), seed=st.integers(0, 2 ** 16))
    def test_taylor_series_matches_eigh(self, n, eta, log_norm, seed):
        # the series alone, at norms where _exp_action would take eigh
        eta = min(eta, n)
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = (m + m.conj().T) / 2
        a *= 10.0 ** log_norm / np.linalg.norm(a, 1)
        c = random_orthonormal(n, eta, seed)
        w, vec = np.linalg.eigh(a)
        exact = (vec * np.exp(-1j * w)) @ vec.conj().T @ c
        norm = np.linalg.norm(a, 1)
        out = _taylor_action(a, c, norm, _taylor_plan(norm))
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
        assert np.array_equal(_exp_action(np.zeros((5, 5)), c), c)


class TestEvolveTdhf:
    def test_fixed_point_iterations_recorded(self):
        _, ints, orb = model_system()
        traj = evolve_tdhf(orb, ints, TdhfPlan(0.5, 10))
        assert traj.fp_iterations.shape == (10,)
        assert np.all(traj.fp_iterations >= 1)
        assert np.all(traj.fp_iterations <= 20)  # tdhf_step's max_iterations

    def test_rk4_records_no_fixed_point_iterations(self):
        _, ints, orb = model_system()
        traj = evolve_tdhf(orb, ints, TdhfPlan(0.01, 2, scheme="rk4"))
        assert list(traj.fp_iterations) == [0, 0]

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
        ints = GridIntegrals.from_grid(grid, NuclearConfig.empty(1),
                                       CoulombKernel())
        empty = OccupiedOrbitals(np.zeros((9, 0)), grid)
        expected = kinetic_phase_table(grid).max()
        assert fock_spectral_norm(empty, ints) == pytest.approx(
            expected, rel=1e-10)

    def test_envelope_ratio_bounded_on_small_sweep(self):
        ratios = []
        for m, eta in [(3, 2), (5, 3)]:
            grid = GridSpec(dim=3, points_per_axis=m, cell_volume=float(eta))
            ints = GridIntegrals.from_grid(grid, NuclearConfig.empty(3),
                                           CoulombKernel())
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
        state = slater_oracle(coeffs, n_orbitals=n_orbitals)
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
        ints = GridIntegrals(h=h, v=v)
        coeffs = random_orthonormal(n, 2, seed=2)
        p = coeffs @ coeffs.conj().T  # the Fock-side density
        d = np.real(np.diag(p))
        direct = (np.trace(h @ p).real
                  + 0.5 * (d @ v @ d)
                  - 0.25 * np.sum(v * np.abs(p.T) ** 2))
        assert hf_energy(OccupiedOrbitals(coeffs), ints) == pytest.approx(
            direct, abs=1e-10)
