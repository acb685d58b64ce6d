"""What importing the package and running each command loads, in fresh interpreters."""
import subprocess
import sys

import pytest

from conftest import python_env

LATE = ("misosec.optimize", "misosec.ordering", "misosec.verify")
MODEL = ["--sigma-h", "1", "--sigma-g", "0.5"]


def _loaded(*args):
    """The modules of LATE that a fresh `python args` imports, by -X importtime."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        env=python_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert "misosec" in imported
    return {name for name in LATE if name in imported}


@pytest.mark.parametrize(
    "args, late",
    [
        (["-c", "import misosec"], set()),
        (["-c", "import misosec.sweeps"], set()),
        (["-m", "misosec.cli", "capacity", "--ntx", "2", *MODEL, "--snr-db", "10",
          "--method", "quad"], set()),
        (["-m", "misosec.cli", "sweep-nt", "--nt-grid", "1,2", *MODEL, "--snr-db", "10",
          "--method", "quad"], set()),
        (["-m", "misosec.cli", "optimize", "--ntx", "2", *MODEL, "--snr-db", "10",
          "--iters", "5"], {"misosec.optimize"}),
        (["-m", "misosec.cli", "verify", "--seed", "0", "--skip-optimizer"], set(LATE)),
    ],
    ids=["import", "import-sweeps", "capacity", "sweep-nt", "optimize", "verify"],
)
def test_only_the_optimizer_and_verify_commands_load_them(args, late):
    assert _loaded(*args) == late


def test_every_export_resolves_to_its_submodule_object():
    code = f"""
import sys
import misosec
late = {LATE!r}
assert not any(name in sys.modules for name in late)
assert set(misosec.__all__) <= set(dir(misosec))
assert not hasattr(misosec, "no_such_name")
assert misosec.verify is sys.modules["misosec.verify"]
assert len(misosec.__all__) == 31
for name in misosec.__all__:
    value = getattr(misosec, name)
    home = sys.modules[value.__module__] if callable(value) else misosec
    assert getattr(home, name) is value, name
    assert vars(misosec)[name] is value, name
"""
    subprocess.run([sys.executable, "-c", code], env=python_env(), check=True, timeout=120)


def test_star_import_binds_every_export():
    code = """
import misosec
from misosec import *
missing = [name for name in misosec.__all__ if name not in globals()]
assert not missing, missing
"""
    subprocess.run([sys.executable, "-c", code], env=python_env(), check=True, timeout=120)
