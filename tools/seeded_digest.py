"""Print one sha256 per seeded misosec output, then one over them all.

Run from anywhere: `python tools/seeded_digest.py`. Each command runs in a
fresh interpreter on the package in this checkout's src directory. A line
gives the first 16 hex digits of the sha256 of the command's stdout plus
its exit code, then the command; the last line combines the lines above.
Two trees whose seeded outputs carry the same bits print the same bytes,
pinned to one core (`taskset -c 0`) or not, so a refactor that must keep
every seeded bit is checked by one `cmp` of two runs. The outputs cover
every seeded path: the Monte Carlo chunk streams, the sweeps' point seeds,
the optimizer's random start and the verify suite's pairs. The script exits
1 if any command exited non-zero, since a command that fails the same way
every time would still print the same digest. Stdlib only.
"""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
MODEL = ["--sigma-h", "1", "--sigma-g", "0.5"]


def _cli_commands(out_dir: str) -> list[list[str]]:
    commands = []
    for seed in range(11):
        commands.append(["verify", "--seed", str(seed)])
        commands.append(["verify", "--seed", str(seed), "--skip-optimizer"])
    # 2^20 antennas pins the capacity routes' one-entry uniform allocation
    for n_t in (1, 4, 8, 64, 2**20):
        for method in ("quad", "coupled", "direct"):
            commands.append(["capacity", "--ntx", str(n_t), *MODEL, "--snr-db", "10",
                             "--method", method, "--samples", "200000", "--seed", "3"])
    # Monte Carlo at the default seed as well
    for method in ("coupled", "direct"):
        commands.append(["capacity", "--ntx", "4", *MODEL, "--snr-db", "10",
                         "--method", method, "--samples", "200000"])
    commands.append(["sweep-nt", "--nt-grid", "1,2,4,8,16", *MODEL, "--snr-db", "10",
                     "--samples", "200000"])
    # the README's commands, each on quad and on Monte Carlo
    commands.append(["optimize", "--ntx", "4", *MODEL, "--snr-db", "6", "--seed", "0"])
    for method in ("quad", "coupled"):
        commands.append(["sweep-snr", "--ntx", "2", *MODEL, "--snr-grid", "0,10,20,30,40",
                         "--samples", "200000", "--seed", "7", "--method", method])
        commands.append(["sweep-nt", "--nt-grid", "1,2,4,8,16", *MODEL, "--snr-db", "10",
                         "--method", method])
    # a sweep that writes its CSV: the file's bytes are hashed with its stdout
    commands.append(["sweep-snr", "--ntx", "2", *MODEL, "--snr-grid", "0,10,20,30,40",
                     "--samples", "200000", "--seed", "7",
                     "--out", os.path.join(out_dir, "sweep.csv")])
    return [[sys.executable, "-m", "misosec.cli", *c] for c in commands]


# library calls with no CLI command; repr of a float list keeps every bit
_CALLS = {
    "verify_lemma_LT_implies_expectation": (
        "import misosec\n"
        "print(repr(misosec.verify_lemma_LT_implies_expectation("
        "(3.0, 1.0), (2.0, 2.0), 1.0, 0.25, 100000, 5)))"
    ),
    "grad_estimate": (
        "import misosec\n"
        "g = misosec.grad_estimate(misosec.ChannelModel(4, 1.0, 0.5), "
        "misosec.PowerAllocation((2.0, 1.0, 0.5, 0.5), 4.0), 100000, 5)\n"
        "print(repr(g.tolist()))"
    ),
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _run(argv: list[str], env: dict[str, str]) -> tuple[bytes, int]:
    done = subprocess.run(argv, env=env, stdout=subprocess.PIPE, check=False)
    return done.stdout + f"\nexit {done.returncode}\n".encode(), done.returncode


def main() -> int:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    lines, failed = [], []
    with tempfile.TemporaryDirectory() as out_dir:
        runs = [(argv, " ".join(argv[3:])) for argv in _cli_commands(out_dir)]
        runs += [([sys.executable, "-c", code], name) for name, code in _CALLS.items()]
        for argv, label in runs:
            output, code = _run(argv, env)
            if "--out" in argv:
                # stdout names the file, whose directory differs from run to run
                csv = Path(out_dir, "sweep.csv")
                output = output.replace(out_dir.encode(), b"DIR")
                output += csv.read_bytes() if csv.exists() else b"no csv\n"
                label = label.replace(out_dir, "DIR")
            lines.append(f"{_digest(output)}  {label}")
            if code != 0:
                failed.append(f"exit {code}: {label}")
    for line in lines:
        print(line)
    combined = "".join(f"{line}\n" for line in lines)
    print(f"{_digest(combined.encode())}  combined")
    for line in failed:
        print(line, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
