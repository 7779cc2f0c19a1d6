"""Workload specs of the saddlescape benchmark.

Every workload runs on the d=10 acceptance saddle (``multiplicative_saddle``,
one negative-curvature axis, quartic coefficient 0.008).  The specs are plain
keyword dicts for ``saddlescape.ExperimentSpec``; the benchmark seed is passed
separately as ``run_experiment(..., master_seed=seed)``.  This module imports
nothing, so the orchestrator can list the workloads without numpy.
"""

ACCEPTANCE_SADDLE = dict(
    family="multiplicative_saddle", dim=10, neg_count=1, rho=2.0, quartic_coeff=0.008,
)
ADDITIVE_SADDLE = dict(ACCEPTANCE_SADDLE, rho=1.0, sigma=0.5)
EPS_GRID = (0.2, 0.1, 0.05)
TUNED_C = 0.01  # frozen output of the tune-once protocol at epsilon = 0.2

WORKLOADS = {
    # small batches: per-step overhead (seed tree, certification, loop)
    "psgd_sgc": dict(
        problem=ACCEPTANCE_SADDLE, algorithm="psgd", mode="first_order", sgc_arm=True,
        epsilon_grid=EPS_GRID, seeds=range(5), max_steps=40, c=TUNED_C,
        stop_after_certified=True,
    ),
    # same loop with batches up to ~1,500: the oracle batch dominates
    "psgd_additive": dict(
        problem=ADDITIVE_SADDLE, algorithm="psgd", mode="first_order", sgc_arm=False,
        epsilon_grid=EPS_GRID, seeds=range(2), max_steps=40, c=TUNED_C,
        stop_after_certified=True,
    ),
    # exact cubic solves and certification every step, fixed step count
    "scrn_ho": dict(
        problem=ACCEPTANCE_SADDLE, algorithm="scrn", mode="higher_order", sgc_arm=True,
        epsilon_grid=EPS_GRID, seeds=range(2), max_steps=100,
    ),
    # 479,240 zeroth-order Hessian directions per step: estimator memory
    "scrn_zo": dict(
        problem=ACCEPTANCE_SADDLE, algorithm="scrn", mode="zeroth_order", sgc_arm=True,
        epsilon_grid=(0.2,), seeds=range(1), max_steps=1, mu=(1.0, 1.0, 0.03, 1.0, 1.0),
    ),
}


# Workloads whose sweep time follows the host's memory speed, not its
# interpreter speed: their times are normalised by the memory-bound
# reference kernel alone (see DESIGN.md, "Host-speed normalisation").
MEMORY_BOUND = {"scrn_zo"}
