"""Closed-form cost evaluations, regime tables, lattice sums."""

import math

import numpy as np
import pytest

from fqlab.costmodel import (
    _CLASSICAL,
    _QUANTUM,
    TIME_EVOLUTION_VS_QUBITIZATION_OVERHEAD,
    CostQuery,
    LambdaParams,
    beta_exponents,
    classical_mf_cost,
    cost_report,
    energy_observable_norm,
    interaction_picture_steps,
    lattice_kernel_bound,
    lattice_kernel_sum,
    lambda_params,
    measurement_costs,
    optimal_classical_term,
    optimal_quantum_label,
    quantum_costs,
    regime_table,
    speedup_exponent,
)
from fqlab.errors import EtaTooSmall, MissingM, ValidationError


class TestClassicalCost:
    def test_equal_basis_and_particles(self):
        q = CostQuery(n_basis=100.0, eta=100.0, time=2.0)
        # terms collapse to eta^{11/3} t and eta^3 t
        assert classical_mf_cost(q) == pytest.approx(
            (100 ** (11 / 3) + 100 ** 3) * 2.0)

    def test_linear_in_time(self):
        q1 = CostQuery(n_basis=1000.0, eta=10.0, time=1.0)
        q2 = CostQuery(n_basis=1000.0, eta=10.0, time=2.0)
        assert classical_mf_cost(q2) == pytest.approx(2 * classical_mf_cost(q1))

    def test_reference_leading_term(self):
        q = CostQuery(n_basis=1e6, eta=1e2, time=1.0)
        term1 = 1e6 ** (4 / 3) * 1e2 ** (7 / 3)
        assert term1 == pytest.approx(4.64e12, rel=5e-3)
        assert classical_mf_cost(q) >= term1

    def test_finite_temperature_variants(self):
        q = CostQuery(n_basis=1e4, eta=10.0, time=1.0, epsilon=0.1,
                      occupied_orbitals=100.0)
        density = classical_mf_cost(q, "finite-T-density")
        expected = (1e4 ** (4 / 3) * 100.0 ** 2 * 10 ** (1 / 3)
                    + 1e4 ** (5 / 3) * 100.0 ** 2 / 10 ** (2 / 3))
        assert density == pytest.approx(expected)
        sampled = classical_mf_cost(q, "finite-T-trajectories")
        assert sampled == pytest.approx(classical_mf_cost(q) / 0.01)

    @pytest.mark.parametrize("field", ["n_basis", "time", "epsilon",
                                       "observable_norm", "sampling_cost"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_field_refused(self, field, value):
        with pytest.raises(ValidationError, match="finite"):
            CostQuery(**{"n_basis": 1e4, "eta": 10.0, field: value})

    def test_missing_m(self):
        q = CostQuery(n_basis=1e4, eta=10.0)
        with pytest.raises(MissingM):
            classical_mf_cost(q, "finite-T-density")


class TestQuantumCosts:
    def test_crossover_at_alpha_four(self):
        eta = 37.0
        q = CostQuery(n_basis=eta ** 4, eta=eta)
        entries = quantum_costs(q)
        fq_second = q.n_basis ** (2 / 3) * eta ** (4 / 3)
        ip = entries["interaction picture"]["value"]
        assert ip == pytest.approx(fq_second, rel=1e-12)

    def test_crossover_at_alpha_two(self):
        eta = 23.0
        q = CostQuery(n_basis=eta ** 2, eta=eta)
        fq_first = q.n_basis ** (1 / 3) * eta ** (7 / 3)
        sq_first = q.n_basis ** (4 / 3) * eta ** (1 / 3)
        assert fq_first == pytest.approx(sq_first, rel=1e-12)

    def test_all_linear_in_time(self):
        q1 = CostQuery(n_basis=1e4, eta=10.0, time=1.0)
        q3 = CostQuery(n_basis=1e4, eta=10.0, time=3.0)
        for name, entry in quantum_costs(q1).items():
            assert quantum_costs(q3)[name]["value"] == pytest.approx(
                3 * entry["value"])

    def test_fast_multipole_flagged_hypothetical(self):
        entries = quantum_costs(CostQuery(n_basis=1e4, eta=10.0))
        assert entries["fast multipole Trotter"]["hypothetical"]
        assert not entries["first quantized Trotter"]["hypothetical"]

    def test_monotone_in_n_time_precision(self):
        base_q = CostQuery(n_basis=1e4, eta=10.0, time=1.0, epsilon=0.1,
                           time_points=2.0)
        bigger_n = CostQuery(n_basis=2e4, eta=10.0, time=1.0, epsilon=0.1,
                             time_points=2.0)
        finer = CostQuery(n_basis=1e4, eta=10.0, time=1.0, epsilon=0.05,
                          time_points=2.0)
        for name, entry in quantum_costs(base_q).items():
            assert quantum_costs(bigger_n)[name]["value"] >= entry["value"]
        assert classical_mf_cost(bigger_n) >= classical_mf_cost(base_q)
        assert (measurement_costs(finer)["shadows k-RDM"]
                >= measurement_costs(base_q)["shadows k-RDM"])

    def test_monotone_in_eta_where_formula_is_increasing(self):
        # the second-quantized Trotter and finite-T formulas carry eta in a
        # denominator, so eta-monotonicity applies to the other entries
        base = quantum_costs(CostQuery(n_basis=1e4, eta=10.0))
        bigger = quantum_costs(CostQuery(n_basis=1e4, eta=20.0))
        for name in ("first quantized Trotter", "interaction picture",
                     "fast multipole Trotter"):
            assert bigger[name]["value"] >= base[name]["value"]


class TestExponents:
    def test_continuity_at_breakpoints(self):
        for alpha in (2.0, 3.0, 4.0):
            below = beta_exponents(alpha - 1e-13)
            above = beta_exponents(alpha + 1e-13)
            assert abs(below[0] - above[0]) < 1e-9
            assert abs(below[1] - above[1]) < 1e-9
        assert beta_exponents(3.0)[0] == pytest.approx(19 / 3, abs=1e-12)
        assert beta_exponents(2.0)[1] == pytest.approx(3.0, abs=1e-12)
        assert beta_exponents(4.0)[1] == pytest.approx(4.0, abs=1e-12)

    def test_speedup_reference_values(self):
        assert speedup_exponent(1.0) == pytest.approx(11 / 5, abs=1e-12)
        assert speedup_exponent(2.0) == pytest.approx(5 / 3, abs=1e-12)
        assert speedup_exponent(1.25) == pytest.approx(2.0, abs=1e-12)
        assert speedup_exponent(4.0) == pytest.approx(2.0, abs=1e-12)

    def test_super_quadratic_exactly_outside_window(self):
        alphas = np.linspace(1.0, 8.0, 1401)
        for alpha in alphas:
            expected = alpha < 5 / 4 or alpha > 4
            assert (speedup_exponent(float(alpha)) > 2.0) == expected

    def test_domain(self):
        with pytest.raises(ValidationError):
            beta_exponents(0.5)


class TestLambdas:
    def test_lattice_sum_27(self):
        assert lattice_kernel_sum(27) == pytest.approx(44 / 3, abs=1e-12)
        assert lattice_kernel_sum(27) <= lattice_kernel_bound(27)

    def test_lattice_bound_holds_up_to_31_cubed(self):
        for m in (3, 5, 7, 9, 11, 15, 21, 31):
            n = m ** 3
            assert lattice_kernel_sum(n) <= 4 * math.pi * n ** (1 / 3)

    def test_lattice_sum_needs_odd_cube(self):
        with pytest.raises(ValidationError):
            lattice_kernel_sum(64)

    def test_lambda_values(self):
        p = LambdaParams(cell_volume=8.0, eta=2, n_basis=27, total_charge=2.0)
        lam = lambda_params(p)
        nu = 44 / 3
        assert lam["lambda_U"] == pytest.approx(2 * 2 * nu / (math.pi * 2))
        assert lam["lambda_V"] == pytest.approx(2 * 1 * nu / (2 * math.pi * 2))

    def test_single_particle_has_no_pair_norm(self):
        p = LambdaParams(cell_volume=8.0, eta=1, n_basis=27, total_charge=1.0)
        assert lambda_params(p)["lambda_V"] == 0.0

    def test_lambda_u_linear_in_charge(self):
        base = LambdaParams(cell_volume=8.0, eta=2, n_basis=27, total_charge=2.0)
        double = LambdaParams(cell_volume=8.0, eta=2, n_basis=27, total_charge=4.0)
        assert lambda_params(double)["lambda_U"] == pytest.approx(
            2 * lambda_params(base)["lambda_U"])


class TestStepCount:
    def test_linear_in_time(self):
        p = LambdaParams(cell_volume=8.0, eta=2, n_basis=27, total_charge=2.0)
        assert interaction_picture_steps(20.0, p) == pytest.approx(
            2 * interaction_picture_steps(10.0, p))

    def test_composed_value(self):
        # recompute from a hand-rolled lattice sum plus the formula
        half = 1
        axis = np.arange(-half, half + 1)
        gx, gy, gz = np.meshgrid(axis, axis, axis, indexing="ij")
        norms = (gx ** 2 + gy ** 2 + gz ** 2).astype(float)
        nu = float(np.sum(1.0 / norms[norms > 0]))
        omega13 = 2.0
        lam_u = 2 * 2.0 * nu / (math.pi * omega13)
        lam_v = 2 * 1 * nu / (2 * math.pi * omega13)
        hand = 3 * 10.0 * (lam_u + lam_v / (1 - 0.5)) / math.log(2.0)
        p = LambdaParams(cell_volume=8.0, eta=2, n_basis=27, total_charge=2.0)
        assert interaction_picture_steps(10.0, p) == pytest.approx(hand, rel=1e-3)

    def test_overhead_constant(self):
        assert TIME_EVOLUTION_VS_QUBITIZATION_OVERHEAD == pytest.approx(
            3 / (math.e * math.log(2)), rel=1e-12)
        assert TIME_EVOLUTION_VS_QUBITIZATION_OVERHEAD == pytest.approx(1.592, abs=5e-4)

    def test_eta_domain(self):
        p = LambdaParams(cell_volume=8.0, eta=1, n_basis=27, total_charge=1.0)
        with pytest.raises(EtaTooSmall):
            interaction_picture_steps(10.0, p)


class TestMeasurementCosts:
    def test_gradient_row_scales_as_sqrt_l(self):
        q1 = CostQuery(n_basis=1e4, eta=10.0, epsilon=0.1, time_points=1.0,
                       observable_norm=5.0)
        q4 = CostQuery(n_basis=1e4, eta=10.0, epsilon=0.1, time_points=4.0,
                       observable_norm=5.0)
        r1 = measurement_costs(q1)["gradient measurement (norm lambda)"]
        r4 = measurement_costs(q4)["gradient measurement (norm lambda)"]
        assert r4 == pytest.approx(2 * r1)

    def test_shadows_row_linear_in_eta_at_k1(self):
        q1 = CostQuery(n_basis=1e4, eta=10.0, epsilon=0.1, time_points=2.0)
        q2 = CostQuery(n_basis=1e4, eta=20.0, epsilon=0.1, time_points=2.0)
        assert (measurement_costs(q2)["shadows k-RDM"]
                == pytest.approx(2 * measurement_costs(q1)["shadows k-RDM"]))

    def test_energy_norm_reference(self):
        assert energy_observable_norm(1e6, 1e2) == pytest.approx(2.62e5, rel=5e-3)


class TestRegimeTable:
    def test_labels_on_representative_points(self):
        expected = {
            1.5: "second quantized Trotter",
            2.5: "first quantized Trotter (N^(1/3) eta^(7/3) term)",
            3.5: "first quantized Trotter (N^(2/3) eta^(4/3) term)",
            4.0: "qubitization",
            5.0: "interaction picture",
        }
        for alpha, label in expected.items():
            assert optimal_quantum_label(alpha) == label

    def test_rows_structure(self):
        rows = list(regime_table([1.0, 2.5, 6.0]))
        assert [r["alpha"] for r in rows] == [1.0, 2.5, 6.0]
        assert rows[1]["speedup"] == pytest.approx(speedup_exponent(2.5))
        assert rows[0]["optimal_classical_term"] == "N^(4/3) eta^(7/3)"
        assert rows[2]["optimal_classical_term"] == "N^(5/3) eta^(4/3)"

    def test_labels_name_the_leading_terms_of_the_cost_table(self):
        # off the crossovers at alpha = 2, 3 and 4, where the labels break
        # ties by hand: the quantum label is the applicable row of least
        # leading exponent, with its leading term for first quantized
        # Trotter, and the classical term is the classical cost's leader
        def exponent(term):
            return (term[0] * alpha + term[1]) / 3

        def name(term):
            return f"N^({term[0]}/3) eta^({term[1]}/3)"

        grid = [1 + i / 100 for i in range(1101) if i not in (100, 200, 300)]
        for alpha in grid + [x + d for x in (2, 3, 4) for d in (-1e-6, 1e-6)]:
            leading = {row: max(terms, key=exponent)
                       for row, (terms, hypothetical) in _QUANTUM.items()
                       if not hypothetical}
            best = min(leading, key=lambda row: exponent(leading[row]))
            if best == "first quantized Trotter":
                best = f"{best} ({name(leading[best])} term)"
            assert optimal_quantum_label(alpha) == best, alpha
            assert optimal_classical_term(alpha) == name(
                max(_CLASSICAL, key=exponent)), alpha

    def test_speedup_two_at_boundary_four_from_both_sides(self):
        assert speedup_exponent(4.0 - 1e-12) == pytest.approx(2.0, abs=1e-9)
        assert speedup_exponent(4.0 + 1e-12) == pytest.approx(2.0, abs=1e-9)


class TestCostReport:
    def test_optimal_is_argmin(self):
        q = CostQuery(n_basis=1e8, eta=10.0, time=1.0, epsilon=0.1)
        report = cost_report(q)
        values = {name: entry["value"]
                  for name, entry in report["quantum"].items()
                  if not entry["hypothetical"]}
        assert report["optimal_quantum"] == min(values, key=values.get)

    def test_includes_measurements_when_l_given(self):
        q = CostQuery(n_basis=1e4, eta=10.0, epsilon=0.1, time_points=2.0)
        assert "measurements" in cost_report(q)

    def test_validation(self):
        with pytest.raises(ValidationError):
            CostQuery(n_basis=4.0, eta=10.0)
        with pytest.raises(ValidationError):
            CostQuery(n_basis=10.0, eta=2.0, epsilon=1.5)

    @pytest.mark.parametrize("field,value", [
        ("time_points", 0.5), ("observable_norm", -1.0),
        ("sampling_cost", -1.0), ("occupied_orbitals", 0.0),
        ("occupied_orbitals", 2e4), ("k_body", 0), ("k_body", 11)])
    def test_field_outside_its_domain_refused(self, field, value):
        with pytest.raises(ValidationError):
            CostQuery(n_basis=1e4, eta=10.0, **{field: value})

    def test_finite_temperature_rows(self):
        q = CostQuery(n_basis=1e4, eta=10.0, time=2.0, epsilon=0.1,
                      occupied_orbitals=100.0)
        report = cost_report(q)
        density = report["classical_finite_T_density"]
        trajectories = report["classical_finite_T_trajectories"]
        assert density == classical_mf_cost(q, "finite-T-density")
        assert trajectories == classical_mf_cost(q, "finite-T-trajectories")
        assert density == pytest.approx(
            (1e4 ** (4 / 3) * 100.0 ** 2 * 10 ** (1 / 3)
             + 1e4 ** (5 / 3) * 100.0 ** 2 / 10 ** (2 / 3)) * 2.0, rel=1e-12)
        assert trajectories == pytest.approx(
            (1e4 ** (4 / 3) * 10 ** (7 / 3) + 1e4 ** (5 / 3) * 10 ** (4 / 3))
            * 2.0 / 0.1 ** 2, rel=1e-12)
        without_m = cost_report(CostQuery(n_basis=1e4, eta=10.0))
        assert "classical_finite_T_density" not in without_m
        assert "classical_finite_T_trajectories" not in without_m

    def test_cost_overflowing_a_float_refused(self):
        q = CostQuery(n_basis=1e5, eta=1e5, time_points=2.0, k_body=40000)
        with pytest.raises(ValidationError, match="overflows a float"):
            cost_report(q)
