"""Verification suite: check composition, exit codes, fixed probe sizes."""
import math

import numpy as np
import pytest

from misosec import channel, run_verify_suite, verify_lemma_LT_implies_expectation

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


# points per check: pairs, pairs x sigmas, pairs, a x x x n, pairs x ratios, lemma cases
REPORT_SIZES = {
    "majorization": 400,
    "lt_order": 800,
    "schur_concave": 400,
    "complete_monotone": 4 * 25 * 11,
    "secrecy_rate_schur": 800,
    "lemma_expectation": 3,
}


@pytest.mark.parametrize("seed", [0, 3])
def test_reports_list_one_witness_per_point_and_the_first_worst(seed):
    result = run_verify_suite(seed, run_optimizer=False)
    for name, report in result.checks:
        witnesses = report.witnesses
        assert len(witnesses) == REPORT_SIZES[name]
        assert not any(math.isnan(w.margin) for w in witnesses)
        assert report.worst == min(witnesses, key=lambda w: w.margin)
        assert report.min_margin == report.worst.margin


def test_canonical_lemma_cases_share_one_stream(monkeypatch):
    calls = []
    draw = channel._draw_abs2

    def counted(*args, **kwargs):
        calls.append(args)  # list.append is atomic, so pool threads may share it
        return draw(*args, **kwargs)

    monkeypatch.setattr(channel, "_draw_abs2", counted)
    result = run_verify_suite(7, run_optimizer=False)
    suite_calls = list(calls)
    calls.clear()
    single = verify_lemma_LT_implies_expectation([4.0, 0.0], [2.0, 2.0], 1.0, 0.25, 200_000, 7)
    assert len(suite_calls) == 2 * len(calls) > 0  # two streams for three cases
    assert {args[3] for args in suite_calls} == {7, 9}  # seed + 0 and seed + 2
    lemma = dict(result.checks)["lemma_expectation"]
    assert lemma.witnesses[0].margin == single.min_margin
