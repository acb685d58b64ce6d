"""CLI behavior through main(argv): outputs, exit codes, config file handling."""
import pytest

from misosec import OrderCheckReport, Witness
from misosec.cli import _COMMANDS, _FILE_KEYS, _FLAGS, main
from misosec.sweeps import CSV_HEADER, point_seed
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
     ("--sigma-h", "1e200"), ("--sigma-g", "1e-200"),  # squares overflow / underflow
     ("--sigma-h", "1e154"), ("--sigma-h", "1e153")],  # P * sigma^2 overflows / has no headroom
)
@pytest.mark.parametrize("method", ["quad", "coupled", "direct"])
def test_capacity_non_finite_input_exit_2(capsys, flag, value, method):
    # n_t=2 draws per entry; n_t=8 draws one Gamma(8) row sum per sample
    for ntx in ("2", "8"):
        args = [
            "capacity", "--ntx", ntx, "--sigma-h", "1.0", "--sigma-g", "0.5",
            "--snr-db", "10", "--samples", "1000", "--method", method, flag, value,
        ]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert "finite" in captured.err
        assert "capacity_bits" not in captured.out


@pytest.mark.parametrize(
    "args",
    [
        ["capacity", "--ntx", "2", "--snr-db", "10", "--method", "coupled"],
        ["capacity", "--ntx", "2", "--snr-db", "10", "--method", "direct"],
        ["sweep-snr", "--ntx", "2", "--snr-grid", "0,10", "--method", "coupled"],
        ["sweep-nt", "--nt-grid", "1,8", "--snr-db", "10", "--method", "direct"],
    ],
    ids=["capacity-coupled", "capacity-direct", "sweep-snr", "sweep-nt"],
)
def test_one_sample_exit_2(capsys, args):
    # one draw has no spread, so a std error of 0 would claim an exact answer
    assert main(args + ["--sigma-h", "1", "--sigma-g", "0.5", "--samples", "1"]) == 2
    captured = capsys.readouterr()
    assert "n_samples" in captured.err
    assert "std_error_bits" not in captured.out


@pytest.mark.parametrize(
    "args",
    [
        *[["capacity", "--ntx", "100000000000000000000000", "--snr-db", "10", "--method", method]
          for method in ("quad", "coupled", "direct")],
        ["sweep-nt", "--nt-grid", "1e300", "--snr-db", "10", "--method", "quad"],
    ],
    ids=["capacity-quad", "capacity-coupled", "capacity-direct", "sweep-nt"],
)
def test_n_t_too_large_to_index_exit_2(capsys, args):
    # such an n_t exited 1 with an OverflowError from the first array of that many entries
    assert main(args + ["--sigma-h", "1", "--sigma-g", "0.5"]) == 2
    assert "maxsize" in capsys.readouterr().err


def test_optimize_non_finite_snr_exit_2(capsys):
    args = ["optimize", "--ntx", "2", "--sigma-h", "0.5", "--sigma-g", "1.0", "--snr-db", "nan"]
    assert main(args) == 2
    assert "finite" in capsys.readouterr().err


def test_optimize_power_without_headroom_exit_2(capsys):
    args = ["optimize", "--ntx", "2", "--sigma-h", "1e154", "--sigma-g", "1.0", "--snr-db", "10"]
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


@pytest.mark.parametrize(
    "args, message",
    [
        (["sweep-snr", "--ntx", "2", "--snr-grid", ","], "sweep grid must be nonempty"),
        (["sweep-nt", "--nt-grid", ",", "--snr-db", "10"], "sweep grid must be nonempty"),
        (["sweep-snr", "--ntx", "2", "--snr-grid", "0,nan"], "sweep grid values must be finite"),
        (["sweep-nt", "--nt-grid", "0,2", "--snr-db", "10"], "antenna grid must hold integers"),
    ],
    ids=["snr-empty", "nt-empty", "snr-nan", "nt-zero"],
)
def test_sweep_grid_errors_are_the_spec_rules(capsys, args, message):
    # the CLI only splits the grid into numbers; SweepSpec alone judges it
    assert main(args + ["--sigma-h", "1.0", "--sigma-g", "0.5", "--method", "quad"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


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


# the worst point of each check, in report order, pinned from the suite that
# built one Witness per point: the margin arrays must name the same points
WORST_POINTS = {
    0: [
        "pair#199 n=8",
        "pair#138 sigma^2=1 s=0.00131826",
        "pair#23 s=0.00143604",
        "a=0.9 x=1000 n=10",
        "pair#138 sigma_g/sigma_h=0.9",
        "case#2 a=0.5",
    ],
    1: [
        "pair#54 n=8",
        "pair#284 sigma^2=1 s=0.00131826",
        "pair#390 s=0.00123368",
        "a=0.9 x=1000 n=10",
        "pair#284 sigma_g/sigma_h=0.9",
        "case#2 a=0.5",
    ],
}


@pytest.mark.parametrize("seed", sorted(WORST_POINTS))
def test_verify_worst_points_are_pinned(capsys, seed):
    assert main(["verify", "--skip-optimizer", "--seed", str(seed)]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if "worst: " in line]
    points = [line.split("worst: ", 1)[1].rsplit(" margin=", 1)[0] for line in lines]
    assert points == WORST_POINTS[seed]


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


def test_quadrature_records_the_seed_it_was_given(capsys):
    # the rule is deterministic: the seed moves only the records, never a rate
    model = ["--sigma-h", "1.0", "--sigma-g", "0.5", "--method", "quad"]
    capacity = ["capacity", "--ntx", "2", "--snr-db", "10", *model]
    sweep = ["sweep-nt", "--nt-grid", "1,2", "--snr-db", "10", *model]
    estimate, rows = {}, {}
    for seed in (0, 5):
        assert main(capacity + ["--seed", str(seed)]) == 0
        estimate[seed] = capsys.readouterr().out.split("\n")[1].split()
        assert main(sweep + ["--seed", str(seed)]) == 0
        rows[seed] = [line.split(",") for line in capsys.readouterr().out.strip().split("\n")[1:]]
        assert estimate[seed][-1] == f"seed={seed}"
        assert [int(row[-1]) for row in rows[seed]] == [point_seed(seed, i) for i in range(2)]
    assert estimate[5][:-1] == estimate[0][:-1]
    assert [row[:-1] for row in rows[5]] == [row[:-1] for row in rows[0]]


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


# every flag a config file may set, with a value, per command
FILE_FLAGS = {
    "capacity": {"ntx": "2", "snr_db": "10", "seed": "3", "sigma_h": "1.0", "sigma_g": "0.5",
                 "method": "direct", "samples": "2000"},
    "optimize": {"ntx": "2", "snr_db": "10", "iters": "5", "seed": "1", "sigma_h": "1.0",
                 "sigma_g": "0.5"},
    "verify": {"seed": "1"},
    "sweep-snr": {"ntx": "2", "snr_grid": "0,10", "out": "snr.csv", "seed": "2", "sigma_h": "1.0",
                  "sigma_g": "0.5", "method": "coupled", "samples": "2000"},
    "sweep-nt": {"nt_grid": "1,2", "snr_db": "10", "out": "nt.csv", "seed": "4", "sigma_h": "1.0",
                 "sigma_g": "0.5", "method": "quad", "samples": "2000"},
}


def test_file_flags_cover_every_flag_a_file_may_set():
    for command, (_, _, flags, _) in _COMMANDS.items():
        assert set(FILE_FLAGS[command]) == set(flags.split()) - {"config", "skip_optimizer"}


def test_config_help_names_the_flags_a_file_cannot_set():
    # the help said "any flag", but a file setting one of these exits 2
    for key in set(_FLAGS) - _FILE_KEYS:
        assert "--" + key.replace("_", "-") in _FLAGS["config"]["help"]


@pytest.mark.parametrize(
    "command, key", [(command, key) for command, flags in FILE_FLAGS.items() for key in flags]
)
def test_config_key_matches_its_flag(tmp_path, monkeypatch, capsys, command, key):
    # key=value in a file gives the same output as --key value on the command line
    monkeypatch.chdir(tmp_path)
    flags = FILE_FLAGS[command]

    def run(args):
        assert main(args) == 0
        written = (tmp_path / flags["out"]).read_bytes() if "out" in flags else b""
        return capsys.readouterr().out, written

    def argv(without=None):
        given = [(k, v) for k, v in flags.items() if k != without]
        return [command] + [tok for k, v in given for tok in ("--" + k.replace("_", "-"), v)]

    from_flags = run(argv())
    cfg = _write_config(tmp_path, f"{key}={flags[key]}\n")
    assert run(argv(without=key) + ["--config", cfg]) == from_flags
