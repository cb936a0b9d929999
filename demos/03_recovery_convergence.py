"""Recovering the hypergraph: plug-in counts vs the masked-modeling oracle route."""

import numpy as np

from hgrec import (
    ALL_PAIRS,
    ExactOracle,
    lower_bound_risk,
    recover_from_dataset,
    recover_from_oracle,
    recovery_report,
    sample_dataset,
    sample_mm_dataset,
    train_tabular,
    uniform_single_mask,
)
from hgrec.generators import assign_weights, star

truth = assign_weights(star(6), 1.0, 10.0, seed=1)
strategy = uniform_single_mask()

# Route 1: the plug-in estimator is just the empirical edge distribution. Its
# error shrinks like 1/sqrt(N) and can never beat the minimax floor
# (1/16) sqrt(m/N) in expectation.
print("plug-in convergence on STAR(6), kappa=10 (mean over 10 seeds):")
print(f"{'N':>8s} {'mean d':>10s} {'minimax floor':>14s}")
for n in (100, 1_000, 10_000, 100_000):
    errs = [
        recovery_report(recover_from_dataset(sample_dataset(truth, n, seed=100 * n + s)), truth).weighted_error
        for s in range(10)
    ]
    print(f"{n:8d} {np.mean(errs):10.4f} {lower_bound_risk(truth.m, n):14.4f}")

# Route 2: train the count-ratio oracle on masked records, keep candidates the
# oracle believes in, then walk relative weights outward and normalize.
print("\noracle route at the reference regime (N=80000, K=1):")
mm = sample_mm_dataset(truth, 80_000, 1, strategy, seed=11)
oracle = train_tabular(mm.counts())
recovered, connected = recover_from_oracle(oracle, ALL_PAIRS, strategy)
report = recovery_report(recovered, truth, meta_connected=connected)
print("  weighted error d:", round(report.weighted_error, 5))
print("  structure errors: missing", len(report.sketch_missing), "spurious", len(report.sketch_spurious))
print("  meta-graph connected:", report.meta_connected)

# With the exact population oracle the masking probabilities cancel and the
# recovery is exact up to floating point.
exact_rec, _ = recover_from_oracle(ExactOracle(truth, strategy), ALL_PAIRS, strategy)
print("\nexact-oracle recovery error:", recovery_report(exact_rec, truth).weighted_error)
