"""Acceptance gate: every headline guarantee of the package, one test each.

Each test prints one "ACCEPTANCE n: PASS" line on success; assertion messages
carry the matching FAIL line. Seeds are frozen so the gate is deterministic
for a given numpy build.
"""
import math
from itertools import product

import numpy as np

from misosec import (
    ChannelModel,
    EvalMethod,
    OptimizerConfig,
    PowerAllocation,
    cm_derivative,
    ergodic_log_rate_mc,
    ergodic_log_rate_quadrature,
    optimize_allocation,
    random_majorization_pair,
    secrecy_capacity,
    secrecy_rate_coupled_mc,
    secrecy_rate_direct_mc,
)
from misosec.cli import main as cli_main
from misosec.ordering import _lt_gaps_grid
from misosec.sweeps import CSV_HEADER

SEED = 2025
SINGLE_ANTENNA_UNIT_RATE = 0.8603473822708868  # e*E1(1)/ln 2
LARGE_NT_LIMIT = 1.6520766965796931  # log2(11/3.5)


def _pass(num: int, msg: str) -> None:
    print(f"ACCEPTANCE {num}: PASS - {msg}")


def test_criterion_1_high_snr_capacity_approaches_two_bits():
    model = ChannelModel(n_t=2, sigma_h=1.0, sigma_g=0.5)
    est = secrecy_capacity(model, 1e6, EvalMethod.coupled_mc(10_000_000, seed=SEED))
    err = abs(est.mean - 2.0)
    assert err <= 0.05, (
        f"ACCEPTANCE 1: FAIL - capacity {est.mean} at P=1e6 is {err} from the "
        f"high-power limit 2.0 (tolerance 0.05)"
    )
    _pass(1, f"capacity {est.mean:.6f} bits at P=1e6, within 0.05 of the limit 2.0")


def test_criterion_2_many_antennas_approach_deterministic_limit():
    model = ChannelModel(n_t=128, sigma_h=1.0, sigma_g=0.5)
    est = secrecy_capacity(model, 10.0, EvalMethod.coupled_mc(1_000_000, seed=SEED))
    err = abs(est.mean - LARGE_NT_LIMIT)
    assert err <= 0.1, (
        f"ACCEPTANCE 2: FAIL - capacity {est.mean} at n_t=128 is {err} from the "
        f"many-antenna limit {LARGE_NT_LIMIT} (tolerance 0.1)"
    )
    _pass(
        2,
        f"capacity {est.mean:.6f} bits at n_t=128 sits {err:.5f} from the "
        f"limit {LARGE_NT_LIMIT:.6f} (tolerance 0.1)",
    )


def test_criterion_3_three_routes_agree_and_coupling_reduces_variance():
    worst_z = 0.0
    worst_ratio = 0.0
    grid = list(product((1, 2, 4, 8), (0.1, 1.0, 10.0), (0.1, 0.5, 0.9)))
    for n_t, P, ratio in grid:
        model = ChannelModel(n_t=n_t, sigma_h=1.0, sigma_g=ratio)
        coupled = secrecy_rate_coupled_mc(
            model, PowerAllocation.uniform(n_t, P), 1_000_000, seed=SEED
        )
        direct = secrecy_rate_direct_mc(
            model, PowerAllocation.uniform(n_t, P), 1_000_000, seed=SEED
        )
        quad = secrecy_capacity(model, P, EvalMethod.quadrature()).mean
        zs = (
            abs(coupled.mean - direct.mean) / math.hypot(coupled.std_error, direct.std_error),
            abs(coupled.mean - quad) / coupled.std_error,
            abs(direct.mean - quad) / direct.std_error,
        )
        point = f"(n_t={n_t}, P={P}, ratio={ratio})"
        for z in zs:
            worst_z = max(worst_z, z)
            assert z <= 3.0, (
                f"ACCEPTANCE 3: FAIL - route disagreement z={z} > 3 at {point} "
                f"(coupled={coupled.mean}, direct={direct.mean}, quad={quad})"
            )
        ratio_se = coupled.std_error / direct.std_error
        worst_ratio = max(worst_ratio, ratio_se)
        assert coupled.std_error < direct.std_error, (
            f"ACCEPTANCE 3: FAIL - no variance reduction at {point}: "
            f"coupled se {coupled.std_error} >= direct se {direct.std_error}"
        )
    _pass(
        3,
        f"36-point grid: all pairwise z <= 3 (worst {worst_z:.3f}); coupled se < "
        f"direct se everywhere (worst ratio {worst_ratio:.4f})",
    )


def test_criterion_4_optimizer_lands_on_uniform_allocation():
    model = ChannelModel(n_t=4, sigma_h=1.0, sigma_g=0.5)
    P = 4.0
    tol = 0.01 * P
    worst = 0.0
    for seed in range(1000, 1010):
        trace = optimize_allocation(model, P, OptimizerConfig(seed=seed))
        dev = max(abs(x - P / 4) for x in trace.final.d)
        worst = max(worst, dev)
        assert dev <= tol, (
            f"ACCEPTANCE 4: FAIL - seed {seed} ended {dev} from uniform "
            f"(tolerance {tol}); final {trace.final.d}"
        )
    _pass(4, f"10 random starts all within {tol} of uniform (worst deviation {worst:.4f})")


def test_criterion_5_majorization_implies_lt_dominance_on_random_pairs():
    rng = np.random.default_rng(SEED)
    s_grid = np.logspace(-3.0, 3.0, 51)[1:]
    worst = math.inf
    for i in range(1000):
        n = int(rng.integers(2, 9))
        d_star, d = random_majorization_pair(n, 4.0, rng)
        for sigma in (1.0, math.sqrt(2.0)):
            gap = float(np.min(_lt_gaps_grid(d_star, d, sigma, s_grid)))
            worst = min(worst, gap)
            assert gap >= -1e-12, (
                f"ACCEPTANCE 5: FAIL - LT gap {gap} < -1e-12 at pair #{i} "
                f"(n={n}, sigma^2={sigma**2:g})"
            )
    _pass(
        5,
        f"1000 random majorization pairs x 50 s values x 2 variance conventions: "
        f"all LT gaps >= -1e-12 (worst {worst:.3e})",
    )


def test_criterion_6_secrecy_integrand_derivative_is_completely_monotone():
    worst = math.inf
    for a in (0.0, 0.1, 0.5, 0.9):
        for x in np.logspace(-3.0, 3.0, 40):
            for n in range(11):
                signed = (-1.0) ** n * cm_derivative(a, float(x), n)
                worst = min(worst, signed)
                assert signed > 0.0, (
                    f"ACCEPTANCE 6: FAIL - (-1)^n psi^(n) = {signed} <= 0 at "
                    f"a={a}, x={x}, n={n}"
                )
    worst_rel = 0.0
    for a in (0.0, 0.5):
        for x in np.logspace(-2.0, 2.0, 9):
            x = float(x)
            h = 1e-3 * x
            for n in range(10):
                fd = (cm_derivative(a, x + h, n) - cm_derivative(a, x - h, n)) / (2 * h)
                exact = cm_derivative(a, x, n + 1)
                rel = abs(fd - exact) / abs(exact)
                worst_rel = max(worst_rel, rel)
                assert rel <= 1e-4, (
                    f"ACCEPTANCE 6: FAIL - derivative ladder breaks at a={a}, x={x}, "
                    f"n={n}: finite difference {fd} vs closed form {exact} (rel {rel})"
                )
    _pass(
        6,
        f"sign pattern strict on 4 x 40 x 11 grid (min signed value {worst:.3e}); "
        f"finite differences match the closed-form ladder (worst rel {worst_rel:.2e})",
    )


def test_criterion_7_degenerate_and_zero_power_clamp_to_exact_zero():
    methods = (
        EvalMethod.coupled_mc(10_000, seed=0),
        EvalMethod.direct_mc(10_000, seed=0),
        EvalMethod.quadrature(),
    )
    count = 0
    for sigma_h, sigma_g in ((0.5, 1.0), (1.0, 1.0), (0.999999, 1.0)):
        model = ChannelModel(n_t=2, sigma_h=sigma_h, sigma_g=sigma_g)
        for P in (0.0, 0.1, 1.0, 10.0, 100.0, 1e6):
            for method in methods:
                est = secrecy_capacity(model, P, method)
                assert est.mean == 0.0 and est.std_error == 0.0, (
                    f"ACCEPTANCE 7: FAIL - expected exact 0 at sigma_h={sigma_h}, "
                    f"sigma_g={sigma_g}, P={P}, method={method.tag.value}; got "
                    f"mean={est.mean}, se={est.std_error}"
                )
                count += 1
    # zero power clamps even for a strictly better legitimate channel
    est = secrecy_capacity(
        ChannelModel(2, 1.0, 0.5), 0.0, EvalMethod.coupled_mc(10_000, seed=0)
    )
    assert est.mean == 0.0 and est.std_error == 0.0, (
        "ACCEPTANCE 7: FAIL - P=0 must clamp to exact 0 even when sigma_h > sigma_g"
    )
    _pass(7, f"{count + 1} degenerate/zero-power points all returned exactly 0.0 bits")


def test_criterion_8_single_antenna_closed_form_value():
    quad = ergodic_log_rate_quadrature(1.0, 1.0, 1)
    err_published = abs(quad - 0.860338)
    err_exact = abs(quad - SINGLE_ANTENNA_UNIT_RATE)
    assert err_published <= 1e-5, (
        f"ACCEPTANCE 8: FAIL - quadrature {quad} vs 0.860338: {err_published} > 1e-5"
    )
    assert err_exact <= 1e-8, (
        f"ACCEPTANCE 8: FAIL - quadrature {quad} vs exact e*E1(1)/ln2 "
        f"{SINGLE_ANTENNA_UNIT_RATE}: {err_exact} > 1e-8"
    )
    mc = ergodic_log_rate_mc(1.0, PowerAllocation((1.0,), 1.0), 400_000, seed=SEED)
    z = abs(mc.mean - quad) / mc.std_error
    assert z <= 3.0, (
        f"ACCEPTANCE 8: FAIL - MC {mc.mean} +- {mc.std_error} vs quadrature {quad}: z={z}"
    )
    _pass(
        8,
        f"quadrature {quad!r} matches e*E1(1)/ln2 to {err_exact:.1e}; "
        f"MC agrees at z={z:.2f}",
    )


def test_criterion_9_sweep_csv_is_byte_reproducible(tmp_path, capsys):
    args = [
        "sweep-snr", "--ntx", "2", "--sigma-h", "1", "--sigma-g", "0.5",
        "--snr-grid", "0,10,20,30,40,50,60", "--samples", "100000", "--seed", "7",
    ]
    p1 = tmp_path / "run1.csv"
    p2 = tmp_path / "run2.csv"
    assert cli_main(args + ["--out", str(p1)]) == 0, "ACCEPTANCE 9: FAIL - first run errored"
    assert cli_main(args + ["--out", str(p2)]) == 0, "ACCEPTANCE 9: FAIL - second run errored"
    capsys.readouterr()
    b1 = p1.read_bytes()
    b2 = p2.read_bytes()
    assert b1 == b2, "ACCEPTANCE 9: FAIL - identical invocations produced different bytes"
    first_line = b1.split(b"\n", 1)[0].decode()
    assert first_line == CSV_HEADER, (
        f"ACCEPTANCE 9: FAIL - header {first_line!r} != {CSV_HEADER!r}"
    )
    assert b1.count(b"\n") == 8, "ACCEPTANCE 9: FAIL - expected 7 rows plus header"
    _pass(9, f"two identical sweep runs wrote byte-identical CSVs ({len(b1)} bytes)")
