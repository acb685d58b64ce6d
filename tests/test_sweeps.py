"""Sweeps: spec validation, row content, CSV determinism, row reproducibility."""
import sys
import threading
from dataclasses import fields, replace

import pytest

from misosec import (
    ChannelModel,
    EvalMethod,
    SweepKind,
    SweepSpec,
    asymptote_high_snr,
    asymptote_large_nt,
    run_sweep_antennas,
    run_sweep_snr,
    secrecy_capacity,
)
from misosec import channel, sweeps
from misosec.sweeps import CSV_HEADER, SweepRow, point_seed, rows_to_csv, write_csv

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


def test_spec_rejects_snr_grid_with_overflowing_power():
    with pytest.raises(ValueError, match="finite"):
        snr_spec(grid=(0.0, 4000.0))


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


def test_snr_rows_share_one_stream(snr_rows):
    # every point of an SNR sweep is evaluated on the draws of point 0
    assert [row.seed for row in snr_rows] == [point_seed(1, 0)] * len(snr_rows)


def test_antenna_rows_use_distinct_point_seeds():
    spec = SweepSpec(
        sweep_kind=SweepKind.ANTENNAS,
        model=MODEL,
        grid=(1.0, 2.0, 3.0),
        method=EvalMethod.coupled_mc(5000, seed=4),
        power=10.0,
    )
    assert [row.seed for row in run_sweep_antennas(spec)] == [point_seed(4, i) for i in range(3)]


SNR_GRID = (-10.0, 0.0, 7.5, 20.0, 40.0)
METHODS = {
    "coupled": EvalMethod.coupled_mc(40_000, seed=2),
    "direct": EvalMethod.direct_mc(40_000, seed=2),
    "quad": EvalMethod.quadrature(),
}


def _same_bits(row, est):
    return (row.capacity_bits.hex(), row.std_error_bits.hex()) == (
        est.mean.hex(),
        est.std_error.hex(),
    )


@pytest.mark.parametrize("n_t", [1, 2, 8])  # 8 draws Gamma row sums
@pytest.mark.parametrize("method", sorted(METHODS))
def test_snr_rows_match_their_own_call_bit_for_bit(method, n_t):
    model = ChannelModel(n_t=n_t, sigma_h=1.0, sigma_g=0.6)
    spec = snr_spec(model=model, grid=SNR_GRID, method=METHODS[method])
    rows = run_sweep_snr(spec)
    for row in rows:
        est = secrecy_capacity(model, row.P, replace(spec.method, seed=row.seed))
        assert _same_bits(row, est), row


@pytest.mark.parametrize("method", sorted(METHODS))
def test_clamped_snr_rows_match_their_own_call(method):
    model = ChannelModel(n_t=2, sigma_h=0.6, sigma_g=1.0)  # sigma_h <= sigma_g clamps to 0
    spec = snr_spec(model=model, grid=SNR_GRID, method=METHODS[method])
    for row in run_sweep_snr(spec):
        est = secrecy_capacity(model, row.P, replace(spec.method, seed=row.seed))
        assert _same_bits(row, est) and est.mean == 0.0


@pytest.mark.parametrize("method", ["coupled", "direct"])
def test_snr_sweep_draws_each_chunk_once(monkeypatch, caller_only, method):
    # the calling thread runs every chunk, so the patched sampler sees every draw
    calls = []
    draw = channel._draw_abs2

    def counted(*args, **kwargs):
        calls.append(args)
        return draw(*args, **kwargs)

    monkeypatch.setattr(channel, "_draw_abs2", counted)
    spec = snr_spec(grid=SNR_GRID, method=METHODS[method])
    run_sweep_snr(spec)
    sweep_draws = len(calls)
    calls.clear()
    secrecy_capacity(MODEL, 10.0, spec.method)
    assert sweep_draws == len(calls) > 0


@pytest.mark.parametrize("method", ["coupled", "direct"])
def test_one_chunk_antenna_rows_match_their_own_call_bit_for_bit(method):
    # every group of the sweep is one chunk per stream, all reduced in one call
    model = ChannelModel(n_t=1, sigma_h=1.0, sigma_g=0.6)
    spec = SweepSpec(
        sweep_kind=SweepKind.ANTENNAS,
        model=model,
        grid=tuple(float(n_t) for n_t in range(1, 9)),
        method=replace(METHODS[method], n_samples=channel.CHUNK),
        power=10.0,
    )
    rows = run_sweep_antennas(spec)
    assert [row.n_t for row in rows] == list(range(1, 9))
    for row in rows:
        est = secrecy_capacity(
            replace(model, n_t=row.n_t), row.P, replace(spec.method, seed=row.seed)
        )
        assert _same_bits(row, est), row


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


def test_csv_header_is_the_row_fields_and_cells_follow_declared_types():
    assert CSV_HEADER.split(",") == [f.name for f in fields(SweepRow)]
    spec = SweepSpec(
        sweep_kind=SweepKind.ANTENNAS,
        model=ChannelModel(2, 1, 0.5),
        grid=(1.0, 2.0),
        method=EvalMethod.quadrature(),
        power=4,
    )
    lines = rows_to_csv(run_sweep_antennas(spec)).split("\n")
    columns = CSV_HEADER.split(",")
    for line in lines[1:-1]:
        cells = dict(zip(columns, line.split(",")))
        assert cells["sigma_h"] == "1.0"
        assert cells["P"] == "4.0"


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


# --- the chunk pool is the only parallelism ------------------------------


def test_antenna_sweep_runs_its_groups_in_order_on_the_calling_thread(monkeypatch):
    # one _capacities call, from the calling thread, with the groups in grid order
    calls = []
    capacities = sweeps._capacities

    def recorded(groups):
        calls.append((threading.current_thread(), [model.n_t for model, _, _ in groups]))
        return capacities(groups)

    monkeypatch.setattr(sweeps, "_capacities", recorded)
    grid = (1.0, 2.0, 3.0, 5.0, 8.0)
    spec = SweepSpec(
        sweep_kind=SweepKind.ANTENNAS,
        model=MODEL,
        grid=grid,
        method=EvalMethod.coupled_mc(3 * channel.CHUNK, seed=4),  # 3 chunks per group
        power=10.0,
    )
    run_sweep_antennas(spec)
    assert calls == [(threading.current_thread(), [int(n_t) for n_t in grid])]
    # no thread outlives the sweep: the chunk pool's workers are processes
    assert threading.enumerate() == [threading.main_thread()]


# --- concurrent callers of the shared chunk pool ---------------------------


def test_concurrent_callers_get_serial_bits():
    # more callers than cores, each submitting many chunks to the one pool;
    # a short switch interval interleaves their submits and merges
    model = ChannelModel(n_t=3, sigma_h=1.0, sigma_g=0.6)
    sweep = snr_spec(grid=(0.0, 5.0, 10.0, 20.0), method=EvalMethod.direct_mc(70_000, seed=9))
    calls = {
        "coupled": lambda: secrecy_capacity(model, 10.0, EvalMethod.coupled_mc(150_001, seed=3)),
        "direct": lambda: secrecy_capacity(model, 10.0, EvalMethod.direct_mc(150_001, seed=3)),
        "sweep": lambda: rows_to_csv(run_sweep_snr(sweep)),
    }
    serial = {name: call() for name, call in calls.items()}
    results: dict = {}

    def run(name):
        results[name] = [calls[name]() for _ in range(2)]

    threads = [threading.Thread(target=run, args=(name,), daemon=True) for name in calls]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads), "a caller did not finish: deadlock?"
    for name, value in serial.items():
        assert results[name] == [value, value], name
