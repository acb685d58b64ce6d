"""Verification suite: check composition, exit codes, fixed probe sizes."""
import functools
import math

import numpy as np
import pytest

from conftest import suite_bits
from misosec import channel, run_verify_suite, verify_lemma_LT_implies_expectation
from misosec.ordering import (
    OrderCheckReport,
    _lemma_chunk,
    _lemma_exact,
    _random_majorization_pairs,
)
from misosec.rates import _mgf_rate
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


def test_suite_makes_no_draws_and_queues_no_chunk(monkeypatch, caller_only):
    # the suite's probes are pool tasks, but none is a Monte Carlo chunk; the
    # calling thread runs them all, so the refused sampler sees every draw
    def refuse(*args, **kwargs):
        raise AssertionError("verify drew or queued a Monte Carlo chunk")

    pool_map = channel._pool_map

    def map_no_chunk(tasks):
        if any(fn is channel._chunk_stats for fn, *_ in tasks):
            refuse()
        return pool_map(tasks)

    monkeypatch.setattr(channel, "_draw_abs2", refuse)
    monkeypatch.setattr(channel, "_pool_map", map_no_chunk)
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
    # the caller runs every task while the pool is taken; with the workers
    # free, the tasks split between the caller and the workers
    serial = [suite_bits(run_verify_suite(s, run_optimizer=run_optimizer)) for s in range(6)]
    blocked_pool()
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
        exact = _lemma_exact(d1, d2, 1.0, a_values)
        dv1, dv2 = np.array(d1), np.array(d2)
        for a, value in zip(a_values, exact):
            # the probe's own chunk fn, one reduction per a on the same draws,
            # which gives the probe's margin to the bit
            chunk = functools.partial(_lemma_chunk, 1.0, dv1, dv2 - dv1, a, seed)
            (((mean, se),),) = channel.stream_moments((chunk,), 200_000)
            report = verify_lemma_LT_implies_expectation(d1, d2, 1.0, a, 200_000, seed)
            assert report.min_margin == mean + 3.0 * se
            assert abs(mean - value) <= 4 * se, (d1, a, mean, se, value)


# Negative controls: the uniform allocation is optimal only for i.i.d. entries.
# With diagonal transmit covariances diag(v_h) and diag(v_g) the secrecy rate
# is R(d) = E log2(1 + sum_k d_k v_h,k |h_k|^2) - E log2(1 + sum_k d_k v_g,k |g_k|^2),
# and at n_t = 2, P = 10 the best of d = (t, 10 - t) on a 201-point grid
# beats uniform. (v_h, v_g): (uniform rate, best rate, best d)
NEGATIVE_CONTROLS = {
    ((1.0, 1.0), (0.25, 1.0)): (0.6261, 1.3948, (10.0, 0.0)),
    ((1.0, 0.5), (0.25, 0.25)): (1.1551, 1.3948, (10.0, 0.0)),
    ((1.0, 1.0), (0.1, 0.5)): (1.4070, 2.0462, (10.0, 0.0)),
}
IID_CONTROL = ((1.0, 1.0), (0.25, 0.25))
CONTROL_GRID = np.stack([np.linspace(0.0, 10.0, 201), np.linspace(10.0, 0.0, 201)], axis=1)


def _diagonal_rates(v_h, v_g):
    return (_mgf_rate(CONTROL_GRID * np.array(v_h), 1.0, 0.0)[0]
            - _mgf_rate(CONTROL_GRID * np.array(v_g), 1.0, 0.0)[0])


def _rate_schur_report(rates):
    # the rate-Schur margins R(uniform) - R(d): uniform is majorized by every d
    uniform = rates[100]
    assert np.array_equal(CONTROL_GRID[100], [5.0, 5.0])
    return OrderCheckReport._of_margins(
        "uniform against a 201-point grid", uniform - rates, lambda i: f"d={CONTROL_GRID[i]}"
    )


@pytest.mark.parametrize("covariances", list(NEGATIVE_CONTROLS))
def test_rate_schur_probe_fails_where_entries_are_not_iid(covariances):
    uniform, best, best_d = NEGATIVE_CONTROLS[covariances]
    rates = _diagonal_rates(*covariances)
    assert abs(rates[100] - uniform) <= 1e-3
    assert abs(rates.max() - best) <= 1e-3
    assert tuple(CONTROL_GRID[np.argmax(rates)]) == best_d
    report = _rate_schur_report(rates)
    assert not report.holds
    assert report.min_margin == pytest.approx(uniform - best, abs=2e-3)


def test_rate_schur_probe_holds_on_the_iid_control():
    rates = _diagonal_rates(*IID_CONTROL)
    assert np.argmax(rates) == 100
    assert abs(rates[100] - 1.5241) <= 1e-3
    assert _rate_schur_report(rates).holds
