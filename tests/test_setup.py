"""The optional kernel build in setup.py.

A missing or broken C toolchain falls back to the pure-Python backend with
a warning and exit code 0.  Any other build failure, such as a missing
source or a tree without the package layout, exits nonzero, so a script
that trusts the exit code never runs the pure backend by accident.  Each
case builds in a temporary copy of the tree.
"""

import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _tree(tmp_path, drop=()):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.so", "*.pyd"))
    for name in ("setup.py", "pyproject.toml"):
        shutil.copy(ROOT / name, tmp_path / name)
    for name in drop:
        (tmp_path / name).unlink()
    return tmp_path


def _build(tree, **env):
    return subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"],
        cwd=tree, env=dict(os.environ, **env), capture_output=True, text=True)


def _kernels(tree):
    return sorted((tree / "src").rglob("_kernel" + sysconfig.get_config_var("EXT_SUFFIX")))


def _compiler():
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    return shutil.which(cc.split()[0])


def test_no_compiler_falls_back_with_a_warning(tmp_path):
    tree = _tree(tmp_path)
    run = _build(tree, CC=str(tmp_path / "no-such-cc"))
    assert run.returncode == 0, run.stdout + run.stderr
    assert "warning: failed to compile pathconn._kernel" in run.stdout
    assert "pure-Python backend will be used" in run.stdout
    assert _kernels(tree) == []


def test_missing_source_fails(tmp_path):
    tree = _tree(tmp_path, drop=("src/pathconn/_kernel.c",))
    run = _build(tree)
    assert run.returncode != 0
    assert "missing sources" in run.stderr
    assert "warning:" not in run.stdout


@pytest.mark.skipif(_compiler() is None, reason="no C compiler found")
def test_missing_package_layout_fails(tmp_path):
    # without pyproject.toml the package is not found under src/, so the
    # built kernel cannot be placed; that is no toolchain problem
    tree = _tree(tmp_path, drop=("pyproject.toml",))
    run = _build(tree)
    assert run.returncode != 0
    assert "warning:" not in run.stdout
