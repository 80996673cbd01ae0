"""Backend parity against a freshly built compiled kernel.

A test run that imports pathconn from src/ without building it has no
compiled kernel, so tests/test_backends.py skips there.  This test builds
the shipped _kernel.c in a temporary copy of the source tree, then runs
the parity, golden-record, residual-search and path-order modules against
that build in a subprocess with PATHCONN_BACKEND=compiled; the path-order
module holds the build to the original path enumerator in oracle.py.  It
fails if that run skips anything, skips only when no C compiler is found,
and writes nothing under src/.
"""

import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("test_backends.py", "test_solver_golden.py", "test_residual_paths.py",
           "test_path_order.py")
KERNEL = "_kernel" + sysconfig.get_config_var("EXT_SUFFIX")


def _compiler():
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    return shutil.which(cc.split()[0])


def _built_kernels():
    return sorted((ROOT / "src").rglob(KERNEL))


@pytest.mark.skipif(_compiler() is None, reason="no C compiler found")
def test_parity_modules_pass_against_a_fresh_build(tmp_path):
    before = _built_kernels()
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.so", "*.pyd"))
    for name in ("setup.py", "pyproject.toml"):
        shutil.copy(ROOT / name, tmp_path / name)
    build = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"],
        cwd=tmp_path, capture_output=True, text=True)
    assert build.returncode == 0, build.stdout + build.stderr
    kernel = tmp_path / "src" / "pathconn" / KERNEL
    assert kernel.exists(), build.stdout + build.stderr

    env = dict(os.environ, PATHCONN_BACKEND="compiled",
               PYTHONPATH=str(tmp_path / "src"))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rs", "-p", "no:cacheprovider",
         *(str(ROOT / "tests" / m) for m in MODULES)],
        cwd=tmp_path, env=env, capture_output=True, text=True)
    summary = run.stdout.strip().splitlines()[-1] if run.stdout.strip() else ""
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-3000:]
    assert " passed" in summary and "skipped" not in summary, run.stdout[-3000:]
    assert _built_kernels() == before
