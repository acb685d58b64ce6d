"""Sweeps: spec validation, row content, CSV determinism, row reproducibility."""
from dataclasses import replace

import pytest

from misosec import (
    CSV_HEADER,
    ChannelModel,
    EvalMethod,
    SweepKind,
    SweepSpec,
    asymptote_high_snr,
    asymptote_large_nt,
    rows_to_csv,
    run_sweep_antennas,
    run_sweep_snr,
    secrecy_capacity,
    write_csv,
)

MODEL = ChannelModel(n_t=2, sigma_h=1.0, sigma_g=0.5)


def snr_spec(**overrides):
    base = dict(
        sweep_kind=SweepKind.SNR,
        model=MODEL,
        grid=(0.0, 10.0, 20.0),
        method=EvalMethod.coupled_mc(50_000, seed=1),
    )
    base.update(overrides)
    return SweepSpec(**base)


# --- spec validation -------------------------------------------------------


def test_spec_rejects_empty_grid():
    with pytest.raises(ValueError):
        snr_spec(grid=())


def test_spec_rejects_non_increasing_grid():
    with pytest.raises(ValueError):
        snr_spec(grid=(0.0, 10.0, 10.0))


def test_spec_rejects_power_on_snr_sweep():
    with pytest.raises(ValueError):
        snr_spec(power=1.0)


def test_spec_rejects_fractional_antenna_grid():
    with pytest.raises(ValueError):
        SweepSpec(
            sweep_kind=SweepKind.ANTENNAS,
            model=MODEL,
            grid=(1.0, 2.5),
            method=EvalMethod.quadrature(),
            power=1.0,
        )


def test_spec_requires_power_for_antenna_sweep():
    with pytest.raises(ValueError):
        SweepSpec(
            sweep_kind=SweepKind.ANTENNAS,
            model=MODEL,
            grid=(1.0, 2.0),
            method=EvalMethod.quadrature(),
        )


def test_runner_rejects_kind_mismatch():
    with pytest.raises(ValueError):
        run_sweep_antennas(snr_spec())
    ant = SweepSpec(
        sweep_kind=SweepKind.ANTENNAS,
        model=MODEL,
        grid=(1.0, 2.0),
        method=EvalMethod.quadrature(),
        power=1.0,
    )
    with pytest.raises(ValueError):
        run_sweep_snr(ant)


# --- SNR sweep content -------------------------------------------------------


@pytest.fixture(scope="module")
def snr_rows():
    return run_sweep_snr(snr_spec())


def test_snr_rows_shape_and_fixed_fields(snr_rows):
    assert len(snr_rows) == 3
    for row, db in zip(snr_rows, (0.0, 10.0, 20.0)):
        assert row.sweep_kind == "snr"
        assert row.sweep_value == db
        assert row.n_t == 2 and row.sigma_h == 1.0 and row.sigma_g == 0.5
        assert row.P == pytest.approx(10.0 ** (db / 10.0))
        assert row.method == "coupled_mc"
        assert row.asymptote_bits == asymptote_high_snr(MODEL)


def test_snr_capacity_increases_toward_asymptote(snr_rows):
    for lo, hi in zip(snr_rows, snr_rows[1:]):
        assert hi.capacity_bits > lo.capacity_bits - 3 * (
            lo.std_error_bits + hi.std_error_bits
        )
    top = snr_rows[-1]
    assert top.capacity_bits < top.asymptote_bits + 3 * top.std_error_bits + 0.05


def test_snr_rows_reproducible_from_recorded_seed(snr_rows):
    spec = snr_spec()
    for row in snr_rows:
        method = replace(spec.method, seed=row.seed)
        est = secrecy_capacity(MODEL, row.P, method)
        assert est.mean == row.capacity_bits
        assert est.std_error == row.std_error_bits


def test_snr_rows_use_distinct_point_seeds(snr_rows):
    seeds = [row.seed for row in snr_rows]
    assert len(set(seeds)) == len(seeds)


def test_equal_scales_sweep_is_all_zero():
    spec = snr_spec(model=ChannelModel(n_t=2, sigma_h=1.0, sigma_g=1.0))
    for row in run_sweep_snr(spec):
        assert row.capacity_bits == 0.0
        assert row.std_error_bits == 0.0
        assert row.asymptote_bits == 0.0


def test_weaker_eavesdropper_gives_uniformly_higher_curve():
    strong = run_sweep_snr(snr_spec())  # ratio 0.5
    weak = run_sweep_snr(snr_spec(model=ChannelModel(n_t=2, sigma_h=1.0, sigma_g=0.9)))
    for lo, hi in zip(weak, strong):
        gap = hi.capacity_bits - lo.capacity_bits
        assert gap > 3 * (lo.std_error_bits + hi.std_error_bits)


# --- antenna sweep content -----------------------------------------------------


def test_antenna_sweep_quadrature_rows():
    spec = SweepSpec(
        sweep_kind=SweepKind.ANTENNAS,
        model=MODEL,
        grid=(1.0, 2.0, 4.0, 8.0),
        method=EvalMethod.quadrature(),
        power=10.0,
    )
    rows = run_sweep_antennas(spec)
    assert [row.n_t for row in rows] == [1, 2, 4, 8]
    for row in rows:
        assert row.sweep_kind == "antennas"
        assert row.std_error_bits <= 1e-6  # deterministic route: the rule's error estimate
        assert row.P == 10.0
        assert row.asymptote_bits == asymptote_large_nt(
            ChannelModel(row.n_t, 1.0, 0.5), 10.0
        )
    caps = [row.capacity_bits for row in rows]
    assert caps[0] < caps[1] < caps[2] < caps[3]
    # gains shrink as the average hardens toward the many-antenna limit
    assert caps[1] - caps[0] > caps[2] - caps[1] > caps[3] - caps[2]


def test_antenna_sweep_zero_power_is_all_zero():
    spec = SweepSpec(
        sweep_kind=SweepKind.ANTENNAS,
        model=MODEL,
        grid=(1.0, 2.0),
        method=EvalMethod.quadrature(),
        power=0.0,
    )
    for row in run_sweep_antennas(spec):
        assert row.capacity_bits == 0.0
        assert row.asymptote_bits == 0.0


# --- CSV emission ----------------------------------------------------------------


def test_csv_header_and_field_count(snr_rows):
    text = rows_to_csv(snr_rows)
    lines = text.split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[-1] == ""  # trailing newline
    for line in lines[1:-1]:
        assert len(line.split(",")) == len(CSV_HEADER.split(","))


def test_csv_round_trips_exact_floats(snr_rows):
    line = rows_to_csv(snr_rows).split("\n")[1]
    cells = line.split(",")
    assert float(cells[7]) == snr_rows[0].capacity_bits  # repr round-trip


def test_write_csv_is_byte_deterministic(tmp_path):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    run_sweep_snr(snr_spec(output_path=str(p1)))
    run_sweep_snr(snr_spec(output_path=str(p2)))
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()
    assert b"\r" not in b1  # LF endings only


def test_write_csv_wraps_oserror_with_path(tmp_path, snr_rows):
    bad = tmp_path / "missing_dir" / "out.csv"
    with pytest.raises(OSError, match="missing_dir"):
        write_csv(str(bad), snr_rows)
