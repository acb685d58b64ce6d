"""CLI behavior through main(argv): outputs, exit codes, config file handling."""
import pytest

from misosec import CSV_HEADER, OrderCheckReport, Witness
from misosec.cli import main
from misosec.verify import VerifySuiteResult

CAPACITY_ARGS = [
    "capacity", "--ntx", "2", "--sigma-h", "1.0", "--sigma-g", "0.5",
    "--snr-db", "10", "--samples", "20000", "--seed", "1",
]


def test_capacity_prints_estimate(capsys):
    assert main(CAPACITY_ARGS) == 0
    out = capsys.readouterr().out
    assert "capacity_bits=" in out
    assert "std_error_bits=" in out
    assert "asymptote_high_snr_bits=2.0" in out
    assert "method=coupled_mc" in out


def test_capacity_is_deterministic(capsys):
    main(CAPACITY_ARGS)
    first = capsys.readouterr().out
    main(CAPACITY_ARGS)
    assert capsys.readouterr().out == first


def test_capacity_quadrature_route(capsys):
    args = [
        "capacity", "--ntx", "2", "--sigma-h", "1.0", "--sigma-g", "0.5",
        "--snr-db", "10", "--method", "quad",
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "method=quadrature" in out
    fields = dict(tok.split("=", 1) for tok in out.split() if "=" in tok)
    assert 0.0 <= float(fields["std_error_bits"]) <= 1e-6  # the rule's error estimate


@pytest.mark.parametrize(
    "args",
    [
        CAPACITY_ARGS + ["--method", "quad", "--nodes", "64"],
        ["optimize", "--ntx", "2", "--sigma-h", "1.0", "--sigma-g", "0.5",
         "--snr-db", "10", "--samples", "5000"],
        ["verify", "--skip-optimizer", "--opt-samples", "5000"],
        ["verify", "--skip-optimizer", "--opt-iters", "5"],
        ["verify", "--skip-optimizer", "--pairs", "40"],
        ["verify", "--skip-optimizer", "--s-points", "10"],
        ["verify", "--skip-optimizer", "--lemma-samples", "20000"],
    ],
)
def test_removed_flags_exit_2(capsys, args):
    assert main(args) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_capacity_clamps_when_eavesdropper_is_stronger(capsys):
    args = [
        "capacity", "--ntx", "2", "--sigma-h", "0.5", "--sigma-g", "1.0",
        "--snr-db", "10", "--samples", "1000",
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "capacity_bits=0.0 std_error_bits=0.0" in out


def test_capacity_missing_arguments_exit_2(capsys):
    assert main(["capacity", "--ntx", "2"]) == 2
    err = capsys.readouterr().err
    assert "missing required arguments" in err
    assert "--sigma-h" in err


@pytest.mark.parametrize(
    "flag, value",
    [("--snr-db", "nan"), ("--snr-db", "inf"), ("--snr-db", "1e5"),
     ("--sigma-h", "inf"), ("--sigma-g", "nan"),
     ("--sigma-h", "1e200"), ("--sigma-g", "1e-200")],  # squares overflow / underflow
)
@pytest.mark.parametrize("method", ["quad", "coupled"])
def test_capacity_non_finite_input_exit_2(capsys, flag, value, method):
    args = [
        "capacity", "--ntx", "2", "--sigma-h", "1.0", "--sigma-g", "0.5",
        "--snr-db", "10", "--samples", "1000", "--method", method, flag, value,
    ]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert "finite" in captured.err
    assert "capacity_bits" not in captured.out


def test_optimize_non_finite_snr_exit_2(capsys):
    args = ["optimize", "--ntx", "2", "--sigma-h", "0.5", "--sigma-g", "1.0", "--snr-db", "nan"]
    assert main(args) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(["sweep-snr", "--ntx", "2", "--snr-grid", "0,nan"], id="snr-nan"),
        pytest.param(["sweep-snr", "--ntx", "2", "--snr-grid", "0,4000"], id="snr-overflow"),
        pytest.param(["sweep-nt", "--nt-grid", "1,inf", "--snr-db", "10"], id="nt-inf"),
    ],
)
def test_sweep_non_finite_grid_exit_2(capsys, args):
    assert main(args + ["--sigma-h", "1.0", "--sigma-g", "0.5", "--method", "quad"]) == 2
    assert "finite" in capsys.readouterr().err


def test_unknown_method_exit_2(capsys):
    assert main(CAPACITY_ARGS + ["--method", "bogus"]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "capacity" in capsys.readouterr().out


def test_optimize_small_run(capsys):
    args = [
        "optimize", "--ntx", "2", "--sigma-h", "1.0", "--sigma-g", "0.5",
        "--snr-db", "10", "--iters", "30", "--seed", "0",
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "converged=" in out
    assert "allocation=" in out
    assert "max_dev_from_uniform=" in out
    assert "objective_bits=" in out


def test_optimize_degenerate_regime_reports_zero(capsys):
    args = [
        "optimize", "--ntx", "2", "--sigma-h", "1.0", "--sigma-g", "1.0",
        "--snr-db", "10",
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "degenerate regime" in out
    assert "capacity_bits=0.0" in out


def test_verify_small_run(capsys):
    assert main(["verify", "--skip-optimizer", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 6
    assert "PASS secrecy_rate_schur" in out
    assert "FAIL" not in out
    assert "optimizer_uniform" not in out  # skipped


def test_verify_optimizer_line_follows_optimizer_ok(capsys, monkeypatch):
    # an ascent that stopped at its cap within tolerance of uniform still fails
    report = OrderCheckReport("one point", [Witness(point="p", margin=0.0)])
    result = VerifySuiteResult(
        checks=(("majorization", report),),
        optimizer_deviation=0.001,
        optimizer_tol=0.04,
        optimizer_ok=False,
    )
    monkeypatch.setattr("misosec.cli.run_verify_suite", lambda *args, **kwargs: result)
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "PASS majorization" in out
    assert "FAIL optimizer_uniform" in out


SWEEP_ARGS = [
    "sweep-snr", "--ntx", "2", "--sigma-h", "1.0", "--sigma-g", "0.5",
    "--snr-grid", "0,10,20", "--samples", "20000", "--seed", "7",
]


def test_sweep_snr_stdout_csv(capsys):
    assert main(SWEEP_ARGS) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4


def test_sweep_snr_file_output_reproducible(tmp_path, capsys):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    assert main(SWEEP_ARGS + ["--out", str(p1)]) == 0
    assert f"wrote {p1} (3 rows)" in capsys.readouterr().out
    assert main(SWEEP_ARGS + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().split("\n")[0] == CSV_HEADER


def test_sweep_snr_bad_grid_exit_2(capsys):
    args = [
        "sweep-snr", "--ntx", "2", "--sigma-h", "1.0", "--sigma-g", "0.5",
        "--snr-grid", "10,10", "--samples", "1000",
    ]
    assert main(args) == 2
    assert "error:" in capsys.readouterr().err


def test_sweep_snr_unwritable_path_exit_1(tmp_path, capsys):
    bad = tmp_path / "no_such_dir" / "out.csv"
    assert main(SWEEP_ARGS + ["--out", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_sweep_nt_quadrature(capsys):
    args = [
        "sweep-nt", "--nt-grid", "1,2,4", "--sigma-h", "1.0", "--sigma-g", "0.5",
        "--snr-db", "10", "--method", "quad",
    ]
    assert main(args) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 4
    assert all(",quadrature," in line for line in lines[1:])


# --- config file -----------------------------------------------------------


def _write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_config_supplies_defaults(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        "# capacity point\n"
        "ntx = 2\n"
        "sigma-h = 1.0\n"   # dashes normalize to underscores
        "sigma_g = 0.5\n"
        "snr_db = 10\n"
        "samples = 20000\n"
        "seed = 1\n",
    )
    assert main(["capacity", "--config", cfg]) == 0
    from_config = capsys.readouterr().out
    main(CAPACITY_ARGS)
    assert from_config == capsys.readouterr().out


def test_command_line_overrides_config(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, "ntx=2\nsigma_h=1.0\nsigma_g=0.5\nsnr_db=10\nsamples=1000\n"
    )
    assert main(["capacity", "--config", cfg, "--sigma-g", "0.9"]) == 0
    assert "sigma_g=0.9" in capsys.readouterr().out


def test_config_unknown_key_exit_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, "ntx=2\nbogus_key=1\n")
    assert main(["capacity", "--config", cfg]) == 2
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key", ["nodes", "opt_samples", "opt_iters", "pairs", "s_points", "lemma_samples"]
)
def test_config_removed_key_exit_2(tmp_path, capsys, key):
    cfg = _write_config(tmp_path, f"ntx=2\n{key}=64\n")
    assert main(["capacity", "--config", cfg]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_config_missing_file_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.cfg")
    assert main(["capacity", "--config", missing]) == 2
    assert "cannot read config file" in capsys.readouterr().err


def test_config_malformed_line_exit_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, "just a line without equals\n")
    assert main(["capacity", "--config", cfg]) == 2
    assert "expected key=value" in capsys.readouterr().err
