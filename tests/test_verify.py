"""Verification suite: check composition, exit codes, fixed probe sizes."""
import numpy as np
import pytest

from misosec import run_verify_suite

EXPECTED_CHECKS = {
    "majorization",
    "lt_order",
    "schur_concave",
    "complete_monotone",
    "lemma_expectation",
    "secrecy_rate_schur",
}


def test_small_suite_passes_with_all_checks():
    result = run_verify_suite(seed=0, run_optimizer=False)
    assert result.exit_code == 0
    assert result.passed
    assert {name for name, _ in result.checks} == EXPECTED_CHECKS
    for _, report in result.checks:
        assert report.holds
        assert report.grid  # every probe documents its grid


@pytest.mark.parametrize("seed", range(1, 11))
def test_small_suite_passes_across_seeds(seed):
    assert run_verify_suite(seed=seed, run_optimizer=False).exit_code == 0


def test_suite_without_optimizer_reports_nan_deviation():
    result = run_verify_suite(seed=0, run_optimizer=False)
    assert np.isnan(result.optimizer_deviation)
    assert result.optimizer_tol == 0.0


def test_full_suite_with_optimizer():
    # random start, default ascent budget: must land within 1% of budget per antenna
    result = run_verify_suite(seed=0)
    assert result.exit_code == 0
    assert result.optimizer_tol == pytest.approx(0.04)
    assert result.optimizer_deviation <= result.optimizer_tol


def test_lemma_check_margin_is_positive_not_just_tolerated():
    result = run_verify_suite(seed=0, run_optimizer=False)
    lemma = dict(result.checks)["lemma_expectation"]
    assert lemma.min_margin > 0


def test_suite_seed_whose_ascent_missed_its_tolerance_passes():
    # the stochastic ascent this replaced ended 0.052 from uniform (tolerance 0.04) here
    result = run_verify_suite(2655919675)
    assert result.exit_code == 0
    assert result.optimizer_deviation <= result.optimizer_tol


def test_secrecy_rate_schur_margins_are_nonnegative():
    result = run_verify_suite(seed=3, run_optimizer=False)
    report = dict(result.checks)["secrecy_rate_schur"]
    assert report.min_margin >= -1e-12
    assert len(report.witnesses) == 2 * 400  # two ratios per fixed pair
