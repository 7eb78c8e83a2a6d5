"""Composed shadow experiment: prepare, evolve, measure, estimate, compare."""

import numpy as np

from .grids import GridSpec
from .hamiltonian import (CoulombKernel, EvolutionPlan, GridHamiltonian,
                          NuclearConfig, evolve)
from .shadows import read_out, variance_bound
from .states import exact_krdm_element
from .stateprep import prepare_slater


def pipeline_shadow_experiment(config: dict) -> dict:
    """Prepare, evolve, measure, estimate, and compare against the oracle.

    Config keys: grid {dim, points, omega}, coeffs (N x eta complex
    array), evolution {time, steps, order, soften, nuclei} (optional),
    estimator {k, epsilon, delta, samples}, elements (list of (i, j)
    tuples or "all-1rdm"), seed. Samples and elements follow
    :func:`fqlab.shadows.read_out`.
    """
    gridc = config["grid"]
    grid = GridSpec(dim=int(gridc["dim"]), points_per_axis=int(gridc["points"]),
                    cell_volume=float(gridc["omega"]))
    state = prepare_slater(config["coeffs"], grid=grid).state
    evo = config.get("evolution")
    if evo and float(evo.get("time", 0.0)) != 0.0:
        ham = GridHamiltonian(
            grid, evo.get("nuclei") or NuclearConfig.empty(grid.dim),
            CoulombKernel(softening=float(evo.get("soften") or 0.0)))
        plan = EvolutionPlan(total_time=float(evo["time"]),
                             steps=int(evo["steps"]),
                             order=int(evo.get("order", 2)))
        state = evolve(state, plan, ham)
    est = config["estimator"]
    k, eps = int(est.get("k", 1)), float(est["epsilon"])
    bound = variance_bound(k, state.eta)
    exact = state.n_orbitals ** state.eta <= 2 ** 16
    cfg, batch, readings = read_out(
        state, k, eps, float(est["delta"]), est.get("samples", "auto"),
        int(config.get("seed", 0)), config.get("elements", "all-1rdm"))
    results = []
    worst_var = 0.0
    for (bra, ket), (estimate, values) in readings:
        emp_var = float(np.mean(np.abs(values) ** 2) - np.abs(np.mean(values)) ** 2)
        worst_var = max(worst_var, emp_var)
        entry = {"i": bra, "j": ket, "estimate": estimate,
                 "empirical_variance": emp_var}
        if exact:
            entry["exact"] = exact_krdm_element(state, bra, ket, check=False)
            entry["error"] = abs(estimate - entry["exact"])
        results.append(entry)
    report = {
        "samples": len(batch),
        "groups": cfg.groups,
        "group_size": cfg.group_size,
        "variance_bound": bound,
        "worst_empirical_variance": worst_var,
        "within_variance_bound": worst_var <= bound,
        "elements": results,
    }
    if all("error" in r for r in results):
        report["max_error"] = max(r["error"] for r in results)
        report["within_epsilon"] = report["max_error"] <= eps
    return report
