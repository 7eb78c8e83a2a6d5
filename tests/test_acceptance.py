"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the PASS lines.
Statistical criteria use fixed seeds, so the whole suite is reproducible
bit for bit.
"""

import hashlib
import math

import numpy as np
import pytest

from fqlab.cli import dispatch
from fqlab.costmodel import (
    TIME_EVOLUTION_VS_QUBITIZATION_OVERHEAD,
    beta_exponents,
    lattice_kernel_bound,
    lattice_kernel_sum,
    optimal_quantum_label,
    speedup_exponent,
)
from fqlab.grids import GridSpec
from fqlab.hamiltonian import (
    CoulombKernel,
    EvolutionPlan,
    GridHamiltonian,
    NuclearConfig,
    dense_hamiltonian,
    evolve,
)
from fqlab.meanfield import (
    GridIntegrals,
    OccupiedOrbitals,
    TdhfPlan,
    mean_field_1rdm,
    tdhf_step,
    evolve_tdhf,
)
from fqlab.shadows import collect_shadows, required_samples, variance_bound
from fqlab.states import exact_krdm_element, first_second_equivalence_check, slater_oracle
from fqlab.stateprep import prepare_slater, toffoli_count

from conftest import (
    exhaustive_estimator_mean,
    fock_spectral_norm,
    random_antisymmetric_state,
    random_orthonormal,
    single_shot_values,
    twirl_deviations,
)

# frozen regression cap for the criterion-11 envelope constant (measured ~8.6)
ENVELOPE_CONSTANT_CAP = 12.0


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS  [{detail}]")


def test_criterion_01_shadows_unbiasedness_exact():
    """Exhaustive channel average equals the exact 1-RDM, N=2, eta=2."""
    worst = 0.0
    for seed in range(5):
        state = random_antisymmetric_state(2, 2, seed=100 + seed)
        for i in range(2):
            for j in range(2):
                mean = exhaustive_estimator_mean(state, (i,), (j,))
                exact = exact_krdm_element(state, (i,), (j,))
                worst = max(worst, abs(mean - exact))
    assert worst < 1e-10
    _report(1, f"5 states, all 1-RDM elements, worst deviation {worst:.2e}")


def _statistical_check(state, k, elements, m, seed):
    eta = state.eta
    bound = variance_bound(k, eta)
    batch = collect_shadows(state, m, seed=seed)
    worst_var = 0.0
    worst_sigmas = 0.0
    for bra, ket in elements:
        values = single_shot_values(batch, bra, ket)
        exact = exact_krdm_element(state, bra, ket)
        var = float(np.mean(np.abs(values) ** 2) - abs(np.mean(values)) ** 2)
        worst_var = max(worst_var, var)
        assert var <= bound
        for component in (np.real, np.imag):
            comp = component(values)
            sigma = comp.std(ddof=1) / math.sqrt(m) + 1e-12
            pull = abs(comp.mean() - component(exact)) / sigma
            worst_sigmas = max(worst_sigmas, pull)
            assert pull < 5.0
    return worst_var, worst_sigmas, bound


def test_criterion_02_shadows_statistical_and_variance():
    """10^5-sample unbiasedness within 5 sigma plus the variance bound."""
    m = 100_000
    eye = np.eye(4)
    one_rdm_elements = [((i,), (j,)) for i in range(4) for j in range(4)]
    results = []
    for label, state in [
            ("slater", slater_oracle([eye[:, 0], eye[:, 1]])),
            ("random", random_antisymmetric_state(4, 2, seed=7))]:
        var, pulls, bound = _statistical_check(
            state, 1, one_rdm_elements, m, seed=2024)
        results.append(f"k=1 {label}: var {var:.1f} <= {bound:.1f}, "
                       f"worst pull {pulls:.2f} sigma")

    filled = slater_oracle([eye[:, a] for a in range(4)])
    two_rdm_elements = [((i1, i2), (j1, j2))
                        for (i1, i2) in [(0, 1), (0, 2), (1, 3), (2, 3)]
                        for (j1, j2) in [(0, 1), (0, 2), (1, 3), (2, 3)]]
    var, pulls, bound = _statistical_check(
        filled, 2, two_rdm_elements, m, seed=2025)
    assert bound == pytest.approx(math.e ** 3 * 16 * (4 + 2 * math.e) ** 2)
    results.append(f"k=2 eta=4: var {var:.1f} <= {bound:.1f}, "
                   f"worst pull {pulls:.2f} sigma")
    _report(2, "; ".join(results))


def test_criterion_03_sample_count_formula():
    """required_samples reproduces the hand evaluation to 3 figures."""
    got = required_samples(4, 1, 2, 0.1, 0.05)
    hand = 64 * math.e ** 3 * math.log(80) * 1 * (2 + 2 * math.e) ** 1 * 2 ** 1 * 100
    assert got == math.ceil(hand)
    assert abs(got - hand) <= 1.0
    assert got == pytest.approx(8.38e6, rel=5e-3)
    _report(3, f"m = {got} vs hand evaluation {hand:.1f}")


def test_criterion_04_twirl_identities():
    """2- and 3-fold Clifford twirls, exhaustive, non-traceless inputs."""
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(4):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert abs(np.trace(b)) > 1e-6 and abs(np.trace(c)) > 1e-6
        dev2, dev3 = twirl_deviations(1, a, b, c)
        worst = max(worst, dev2, dev3)
    dev2, dev3 = twirl_deviations(1, np.eye(2), np.diag([1.0, -1.0]),
                                  np.diag([1.0, 0.0]))
    worst = max(worst, dev2, dev3)
    assert worst < 1e-10
    _report(4, f"max deviation {worst:.2e} over random and structured inputs")


def test_criterion_05_trotter_order():
    """Product-formula error slopes against the dense propagator."""
    grid = GridSpec(dim=1, points_per_axis=8, cell_volume=8.0)
    nuclei = NuclearConfig(np.array([[0.3]]), np.array([2.0]))
    kernel = CoulombKernel(softening=0.5)
    coeffs = random_orthonormal(8, 2, seed=50)
    state = slater_oracle(coeffs, grid=grid)
    grid_ham = GridHamiltonian(grid, nuclei, kernel)
    ham = dense_hamiltonian(grid_ham, 2)
    w, v = np.linalg.eigh(ham)
    t = 0.5
    exact = (v * np.exp(-1j * w * t)) @ v.conj().T @ state.amplitudes
    step_ladder = (4, 8, 16, 32)
    slopes = {}
    for order in (1, 2, 4):
        errors = []
        for steps in step_ladder:
            plan = EvolutionPlan(total_time=t, steps=steps, order=order)
            out = evolve(state, plan, grid_ham)
            errors.append(np.linalg.norm(out.amplitudes - exact))
        fit = np.polyfit(np.log(t / np.array(step_ladder)),
                         np.log(np.array(errors)), 1)[0]
        slopes[order] = fit
    assert abs(slopes[1] - 1.0) <= 0.3
    assert abs(slopes[2] - 2.0) <= 0.3
    assert slopes[4] >= 3.5
    _report(5, "slopes " + ", ".join(
        f"order {o}: {s:.3f}" for o, s in slopes.items()))


def test_criterion_06_first_second_equivalence():
    """Transition operators match fermionic ladder operators, all (p, q)."""
    checked = 0
    for n_orbitals, eta in [(4, 2), (4, 3), (6, 2), (6, 3), (8, 2), (8, 3)]:
        reference = slater_oracle(np.eye(n_orbitals)[:, :eta])
        randomized = slater_oracle(
            random_orthonormal(n_orbitals, eta, seed=300 + n_orbitals + eta))
        for state in (reference, randomized):
            for p in range(n_orbitals):
                for q in range(n_orbitals):
                    assert first_second_equivalence_check(state, p, q)
                    checked += 1
    _report(6, f"{checked} (state, p, q) combinations")


def test_criterion_07_state_preparation():
    """Overlap with the determinant oracle and the exact Toffoli ledger."""
    cases = [(n, eta) for n in (4, 5, 6, 7, 8) for eta in (1, 2, 3) if eta < n]
    worst = 1.0
    count = 0
    for n_orbitals, eta in cases:
        for rep in range(4):
            coeffs = random_orthonormal(
                n_orbitals, eta, seed=1000 + 10 * n_orbitals + eta + rep)
            result = prepare_slater(coeffs, validate=(rep == 0))
            oracle = slater_oracle(coeffs)
            worst = min(worst, abs(result.state.overlap(oracle)))
            assert abs(abs(result.state.overlap(oracle)) - 1.0) <= 1e-9
            assert result.ledger.total == toffoli_count(n_orbitals, eta,
                                                        "improved")
            count += 1
    assert count >= 50
    assert toffoli_count(8, 2, "improved") == 48
    assert toffoli_count(8, 2, "basic") == 72
    _report(7, f"{count} random determinants, worst overlap {worst:.12f}; "
               f"counts at (8,2): improved 48, basic 72")


def test_criterion_08_tdhf_conservation():
    """Midpoint TDHF: energy drift, projector purity, free-field limit."""
    grid = GridSpec(dim=1, points_per_axis=16, cell_volume=32.0)
    nuclei = NuclearConfig(np.array([[0.5]]), np.array([2.0]))
    kernel = CoulombKernel(softening=1.0)
    integrals = GridIntegrals.from_grid(GridHamiltonian(grid, nuclei, kernel))
    _, vecs = np.linalg.eigh(integrals.h)
    orbitals = OccupiedOrbitals(vecs[:, :2], grid)

    traj = evolve_tdhf(orbitals, integrals, TdhfPlan(1.0, 1000))
    drift = float(np.max(np.abs(traj.energies - traj.energies[0])))
    assert drift < 1e-6
    purity = max(
        float(np.linalg.norm((p := mean_field_1rdm(snap)) @ p - p))
        for snap in traj.orbital_history)
    assert purity < 1e-8

    free = GridIntegrals(axis=integrals.h, v=np.zeros_like(integrals.v))
    stepped = tdhf_step(orbitals, free, 1e-3)
    w, v = np.linalg.eigh(integrals.h)
    exact = (v * np.exp(-1j * w * 1e-3)) @ v.conj().T @ orbitals.coeffs
    free_err = float(np.max(np.abs(stepped.coeffs - exact)))
    assert free_err < 1e-9  # well below the O(dt^3) integrator envelope
    _report(8, f"energy drift {drift:.2e}, purity {purity:.2e}, "
               f"free-limit error {free_err:.2e}")


def test_criterion_09_mean_field_cross_check():
    """mean_field_1rdm equals the first-quantized 1-RDM elementwise."""
    worst = 0.0
    for n_orbitals, eta in [(4, 2), (6, 3), (8, 2), (8, 3)]:
        coeffs = random_orthonormal(n_orbitals, eta, seed=40 + n_orbitals)
        p = mean_field_1rdm(OccupiedOrbitals(coeffs))
        state = slater_oracle(coeffs)
        for mu in range(n_orbitals):
            for nu in range(n_orbitals):
                exact = exact_krdm_element(state, (mu,), (nu,), check=False)
                worst = max(worst, abs(p[mu, nu] - exact))
    assert worst < 1e-9
    _report(9, f"worst elementwise deviation {worst:.2e}")


def test_criterion_10_cost_model_numbers():
    """Closed-form constants, continuity, regime labels, overheads."""
    nu = lattice_kernel_sum(27)
    assert abs(nu - 44 / 3) < 1e-12
    assert nu <= lattice_kernel_bound(27)
    assert abs(lattice_kernel_bound(27) - 4 * math.pi * 3) < 1e-12

    assert abs(speedup_exponent(1.0) - 11 / 5) < 1e-12
    assert abs(speedup_exponent(2.0) - 5 / 3) < 1e-12
    assert abs(speedup_exponent(4.0) - 2.0) < 1e-12
    assert abs(speedup_exponent(1.25) - 2.0) < 1e-12

    for alpha in (2.0, 3.0, 4.0):
        below = beta_exponents(alpha - 1e-9)
        above = beta_exponents(alpha + 1e-9)
        assert abs(below[0] - above[0]) < 1e-7  # linear pieces: slope ~ 2
        assert abs(below[1] - above[1]) < 1e-7
    # exact continuity at the breakpoints themselves
    assert beta_exponents(2.0)[1] == pytest.approx(3.0, abs=1e-12)
    assert beta_exponents(3.0) == pytest.approx((19 / 3, 10 / 3), abs=1e-12)
    assert beta_exponents(4.0)[1] == pytest.approx(4.0, abs=1e-12)

    labels = {alpha: optimal_quantum_label(alpha)
              for alpha in (1.5, 2.5, 3.5, 4.0, 5.0)}
    assert labels[1.5] == "second quantized Trotter"
    assert labels[2.5].startswith("first quantized Trotter (N^(1/3)")
    assert labels[3.5].startswith("first quantized Trotter (N^(2/3)")
    assert labels[4.0] == "qubitization"
    assert labels[5.0] == "interaction picture"

    overhead = TIME_EVOLUTION_VS_QUBITIZATION_OVERHEAD
    assert overhead == pytest.approx(3 / (math.e * math.log(2)), rel=1e-12)
    assert overhead == pytest.approx(1.592, abs=5e-4)
    _report(10, f"lambda_nu = 44/3, speedups exact, labels match, "
                f"overhead {overhead:.4f}")


def test_criterion_11_norm_envelope():
    """||F|| <= C (eta^{2/3}/delta + 1/delta^2) with one constant C."""
    ratios = []
    for m in (3, 5, 7):
        for eta in (2, 3, 4):
            grid = GridSpec(dim=3, points_per_axis=m, cell_volume=float(eta))
            integrals = GridIntegrals.from_grid(
                GridHamiltonian(grid, NuclearConfig.empty(3), CoulombKernel()))
            envelope = (eta ** (2 / 3) / grid.spacing
                        + 1.0 / grid.spacing ** 2)
            for rep in range(20):
                coeffs = random_orthonormal(
                    grid.total_points, eta, seed=5000 + 100 * m + 10 * eta + rep)
                norm = fock_spectral_norm(
                    OccupiedOrbitals(coeffs, grid), integrals)
                ratios.append(norm / envelope)
    fitted_c = max(ratios)
    assert np.isfinite(fitted_c)
    assert fitted_c <= ENVELOPE_CONSTANT_CAP
    _report(11, f"fitted C = {fitted_c:.3f} over {len(ratios)} points "
                f"(cap {ENVELOPE_CONSTANT_CAP})")


def test_criterion_12_manifest_determinism(tmp_path, monkeypatch):
    """Stochastic CLI runs replayed from manifests are byte-identical."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "nuclei.txt").write_text("2 0.4\n")

    def digest(path):
        return hashlib.sha256(open(path, "rb").read()).hexdigest()

    assert dispatch(["evolve", "--dim", "1", "--points", "5", "--omega", "5",
                     "--eta", "2", "--nuclei", "nuclei.txt", "--soften",
                     "0.5", "--time", "0.3", "--steps", "40", "--seed", "11",
                     "--out", "state.bin"]) == 0
    assert dispatch(["shadows", "--in", "state.bin", "--k", "1",
                     "--epsilon", "0.3", "--delta", "0.1", "--samples",
                     "3000", "--seed", "4", "--out", "est.csv",
                     "--dump-samples", "raw.csv"]) == 0
    assert dispatch(["cost", "--alpha-range", "1:8:0.25",
                     "--out", "speedup.csv"]) == 0

    digests = {name: digest(name)
               for name in ("state.bin", "est.csv", "raw.csv", "speedup.csv")}
    for manifest in ("state.bin.manifest.json", "est.csv.manifest.json",
                     "speedup.csv.manifest.json"):
        assert dispatch(["--manifest", manifest]) == 0
    for name, before in digests.items():
        assert digest(name) == before
    _report(12, f"{len(digests)} outputs byte-identical after replay")
