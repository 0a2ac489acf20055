"""The benchmark's workloads: one synthetic KB family and one sweep config each.

The run's ``--seed`` becomes the sweep's ``snapshot_seed``: it chooses which
facts each nested snapshot holds.  The family's ``synth_kb`` seed and the
sampling ``master_seed`` stay fixed, because either one, varied with the run
seed, moved the cost of a sweep far more than any bound could hold (README.md,
"Seeds").
"""

# the acceptance sweep's family (SWEEP_SYNTH in tests/test_acceptance.py),
# with 10,000 facts instead of 60,000, so that a run holds several sweeps
SKEWED = {
    "predicates": 48,
    "entities": 400,
    "collections": 20,
    "genls_depth": 2,
    "rules": 90,
    "body_min": 1,
    "body_max": 3,
    "rule_skew": 1.3,
    "facts": 10000,
    "fact_skew": 0.8,
    "levels": 5,
    "root_predicates": 8,
    "root_fact_weight": 0.1,
    "seed": 20260810,
}

FULL_GRID = {
    "model1_k": [2, 3, 4, 5, 6, 7],
    "model2_beta": [10, 15, 20, 30, 40, 50],
}

# fields every sweep shares; profile_replicates is left unset, so every cell
# is profiled
COMMON = {
    "master_seed": 42,
    "depth_bound": 10,
    "depth_limit": 10,
    "threshold": 0.2,
    "continue_on_error": True,
}

WORKLOADS = {
    "grid-skew": {
        "synth": SKEWED,
        "sweep": dict(COMMON, **FULL_GRID, snapshot_sizes=[5000, 10515], replicates=2),
    },
    "ramp-skew": {
        "synth": SKEWED,
        "sweep": dict(
            COMMON,
            snapshot_sizes=[1000 + 500 * i for i in range(12)],
            model1_k=[3],
            model2_beta=[30],
            replicates=1,
        ),
    },
}
