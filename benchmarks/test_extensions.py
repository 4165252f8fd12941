"""Benchmarks for the paper-suggested extensions.

* partial-fingerprint anonymization (paper Section 7): cheaper and more
  accurate than full-length GLOVE under an assumed adversary;
* the cross-database check-in attack (paper Section 1, ref. [7]):
  breaks pseudonymized data, blocked by GLOVE;
* the downstream-utility harness (paper Section 2.4 claim).
"""

import numpy as np

from benchmarks.conftest import bench_scale
from repro.analysis.accuracy import extent_accuracy
from repro.attacks.cross_database import cross_database_attack, simulate_checkin_database
from repro.core.config import GloveConfig
from repro.core.glove import glove
from repro.core.partial import partial_glove, time_window_model
from repro.experiments import utility_eval


def test_partial_vs_full_glove(benchmark, civ_dataset):
    """Partial anonymization preserves more accuracy than full-length."""
    full = glove(civ_dataset, GloveConfig(k=2))

    partial = benchmark.pedantic(
        lambda: partial_glove(civ_dataset, time_window_model(9, 17), GloveConfig(k=2)),
        rounds=1,
        iterations=1,
    )
    assert partial.exposed_result.dataset.is_k_anonymous(2)

    s_full, _ = extent_accuracy(full.dataset)
    s_part, _ = extent_accuracy(partial.dataset)
    assert float(s_part(200.0)) > float(s_full(200.0))
    benchmark.extra_info["frac_original_spatial"] = {
        "full": round(float(s_full(200.0)), 3),
        "partial_9_17": round(float(s_part(200.0)), 3),
    }
    benchmark.extra_info["exposed_fraction"] = round(partial.exposed_fraction, 3)
    benchmark.extra_info["paper"] = (
        "Section 7: partial anonymization 'is less expensive to achieve' "
        "under attacker-knowledge assumptions"
    )


def test_cross_database_attack_blocked(benchmark, civ_dataset):
    """Check-in linkage breaks pseudonyms, not GLOVE output."""
    side = simulate_checkin_database(
        civ_dataset, coverage=0.3, checkins_per_user=5, rng=np.random.default_rng(3)
    )
    published = glove(civ_dataset, GloveConfig(k=2)).dataset

    outcome = benchmark.pedantic(
        lambda: cross_database_attack(side, published), rounds=1, iterations=1
    )
    baseline = cross_database_attack(side, civ_dataset)
    assert baseline.reidentification_rate > 0.3
    assert outcome.reidentification_rate == 0.0
    benchmark.extra_info["reidentified"] = {
        "pseudonymized": round(baseline.reidentification_rate, 2),
        "glove_k2": round(outcome.reidentification_rate, 2),
    }
    benchmark.extra_info["paper"] = (
        "ref [7]: hundreds re-identified from check-ins at 90% confidence; "
        "GLOVE's k-anonymity blocks the attack"
    )


def test_utility_preservation(benchmark):
    """Section 2.4: aggregate analyses survive anonymization."""
    n_users, days, seed = bench_scale()
    report = benchmark.pedantic(
        lambda: utility_eval.run(n_users=n_users, days=days, seed=seed),
        rounds=1,
        iterations=1,
    )
    comparison = report.data["comparison"]
    assert comparison["density_cosine"] > 0.6
    assert comparison["home_median_displacement_m"] < 15_000.0
    benchmark.extra_info["comparison"] = {
        key: (round(val, 3) if isinstance(val, float) else val)
        for key, val in comparison.items()
    }
    benchmark.extra_info["paper"] = (
        "Section 2.4: routine-behaviour and aggregate analyses remain valid"
    )
