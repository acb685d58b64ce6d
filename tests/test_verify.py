"""Verification suite: check composition, exit codes, fixed probe sizes."""
import math

import numpy as np
import pytest

from conftest import suite_bits
from misosec import channel, run_verify_suite
from misosec.ordering import _lemma_exact, _lemma_margins, _random_majorization_pairs
from misosec.verify import _PAIR_DIMS, _PAIR_TOTAL, _PAIRS

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


def _random_pair0(seed):
    """Random pair #0 of run_verify_suite(seed) as (d, d_star), drawn in the
    order the suite documents: the dimensions, then each dimension's pairs."""
    rng = np.random.default_rng(np.random.SeedSequence((seed % 2**63, 11)))
    dims = rng.choice(_PAIR_DIMS, size=_PAIRS)
    for n in _PAIR_DIMS:
        d_star, d = _random_majorization_pairs(n, _PAIR_TOTAL, rng, int(np.sum(dims == n)))
        if n == dims[0]:
            return d[0], d_star[0]


def test_suite_makes_no_draws_and_queues_no_chunk(monkeypatch):
    # the suite's probes are pool tasks, but none is a Monte Carlo chunk
    def refuse(*args, **kwargs):
        raise AssertionError("verify drew or queued a Monte Carlo chunk")

    submit = channel._POOL.submit

    def submit_no_chunk(fn, *args, **kwargs):
        if fn is channel._chunk_stats:
            refuse()
        return submit(fn, *args, **kwargs)

    monkeypatch.setattr(channel, "_draw_abs2", refuse)
    monkeypatch.setattr(channel._POOL, "submit", submit_no_chunk)
    result = run_verify_suite(7)
    assert result.exit_code == 0
    # the lemma's margins are its exact differences, case by case
    d, d_star = _random_pair0(7)
    exact = _lemma_exact((4.0, 0.0), (2.0, 2.0), 1.0, (0.25, 0.0))
    exact += _lemma_exact(d, d_star, 1.0, (0.5,))
    lemma = dict(result.checks)["lemma_expectation"]
    assert [w.margin for w in lemma.witnesses] == exact
    assert lemma.grid == "3 cases on 2 pairs, MGF and Frullani integrals"


@pytest.mark.parametrize("run_optimizer", [False, True])
def test_suite_output_does_not_depend_on_the_schedule(blocked_pool, run_optimizer):
    # the caller runs every task while the pool's worker is blocked; with the
    # worker free, the tasks split between the two threads
    busy, release = blocked_pool
    serial = [suite_bits(run_verify_suite(s, run_optimizer=run_optimizer)) for s in range(6)]
    release.set()
    busy.submit(int).result(timeout=60)
    pooled = [suite_bits(run_verify_suite(s, run_optimizer=run_optimizer)) for s in range(6)]
    assert pooled == serial


def test_sampled_lemma_lies_within_4_se_of_the_exact_value():
    # the suite's three cases at seed 0 (cases #0 and #1 share seed + 0, case
    # #2 draws at seed + 2), and an 8-antenna pair at a = 0 and 0.25
    d, d_star = _random_pair0(0)
    cases = [
        ((4.0, 0.0), (2.0, 2.0), (0.25, 0.0), 0),
        (d, d_star, (0.5,), 2),
        ((2.0, 1.0, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0), (0.5,) * 8, (0.0, 0.25), 5),
    ]
    for d1, d2, a_values, seed in cases:
        sampled = _lemma_margins(d1, d2, 1.0, a_values, 200_000, seed)
        exact = _lemma_exact(d1, d2, 1.0, a_values)
        for a, (_, mean, se), value in zip(a_values, sampled, exact):
            assert abs(mean - value) <= 4 * se, (d1, a, mean, se, value)
