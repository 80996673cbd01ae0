"""Parity between the pure-Python and compiled kernels.

The two backends promise bit-identical behavior: same candidate order, same
best family, same completion flags, and the same work-unit counts (budget
cutoffs included).  These tests call both kernels directly on raw inputs.
"""

import os
import random
import subprocess
import sys

import pytest

from pathconn import _pure
from pathconn.random_graphs import RandomGraphSpec, sample_graphs
from pathconn.steiner import (
    VARIANTS, _INTERNAL, _TREE, _eid_flat, _smask, local_upper_bound,
)
from test_path_order import CUT_CASES, cut_points

_kernel = pytest.importorskip(
    "pathconn._kernel", reason="compiled kernel not built")

HUGE = 1 << 62


def _instances(seed, count):
    spec = RandomGraphSpec(n_min=4, n_max=7, m_min=3, m_max=12,
                           requirement="none")
    rng = random.Random(seed)
    for g in sample_graphs(spec, seed=seed, count=count):
        for k in (2, 3, 4):
            if k <= g.n:
                yield g, tuple(sorted(rng.sample(range(g.n), k)))


def test_backend_names_differ():
    assert _pure.BACKEND_NAME == "pure"
    assert _kernel.BACKEND_NAME == "compiled"


def test_tree_enumeration_is_shared():
    assert _kernel.enumerate_trees is _pure.enumerate_trees


def test_path_enumeration_parity_including_truncation():
    for g, s in _instances(seed=31, count=25):
        sm = _smask(s)
        for cap, budget in ((200_000, HUGE), (5, HUGE), (200_000, 29),
                            (200_000, 1), (200_000, 0)):
            a = _pure.enumerate_paths(g.n, g.masks, sm, cap, budget)
            b = _kernel.enumerate_paths(g.n, g.masks, sm, cap, budget)
            assert a == b, (g.edges, s, cap, budget)


def test_path_enumeration_parity_at_every_cut_point():
    for g, s in CUT_CASES:
        sm = _smask(s)
        for cap, budget in cut_points(g, s):
            a = _pure.enumerate_paths(g.n, g.masks, sm, cap, budget)
            b = _kernel.enumerate_paths(g.n, g.masks, sm, cap, budget)
            assert a == b, (g.edges, s, cap, budget)


def test_packing_parity_including_truncation():
    for g, s in _instances(seed=32, count=12):
        eid = _eid_flat(g)
        k = len(s)
        sm = _smask(s)
        for variant in VARIANTS:
            if _TREE[variant]:
                cands, _, _ = _pure.enumerate_trees(
                    g.n, g.masks, g.edges, sm, 3000, HUGE)
            else:
                cands, _, _ = _pure.enumerate_paths(g.n, g.masks, sm, 3000, HUGE)
            if not cands:
                continue
            slots = k if _TREE[variant] else 2 * k - 2
            degs = [g.degree(v) for v in s]
            ub = local_upper_bound(g, s, variant)
            for target, prune, budget in (
                    (ub, False, HUGE), (max(1, ub), True, HUGE),
                    (0, False, HUGE), (ub, False, 41), (ub, True, 3)):
                args = (g.n, g.m, eid, cands, _TREE[variant], sm,
                        _INTERNAL[variant], slots, k // 2, degs,
                        target, prune, budget)
                assert _pure.solve_pack(*args) == _kernel.solve_pack(*args), (
                    g.edges, s, variant, target, prune, budget)


def test_oversized_budget_is_clamped_not_overflowed():
    from pathconn.graphs import complete
    g = complete(5)
    sm = _smask((0, 1, 2))
    a = _pure.enumerate_paths(g.n, g.masks, sm, 200_000, 10 ** 30)
    b = _kernel.enumerate_paths(g.n, g.masks, sm, 200_000, 10 ** 30)
    assert a == b


def _backend_of(env_value):
    env = dict(os.environ)
    env.pop("PATHCONN_BACKEND", None)
    if env_value is not None:
        env["PATHCONN_BACKEND"] = env_value
    proc = subprocess.run(
        [sys.executable, "-c", "import pathconn; print(pathconn.BACKEND)"],
        capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout.strip(), proc.stderr


def test_environment_variable_selects_backend():
    code, name, _ = _backend_of("pure")
    assert (code, name) == (0, "pure")
    code, name, _ = _backend_of("compiled")
    assert (code, name) == (0, "compiled")
    code, name, _ = _backend_of(None)
    assert code == 0 and name in ("pure", "compiled")


def test_unknown_backend_value_is_rejected():
    for value in ("turbo", "python", "cython", "kernel"):
        code, _, err = _backend_of(value)
        assert code != 0, value
        assert "PATHCONN_BACKEND" in err


def test_solver_results_identical_across_backends():
    script = (
        "from pathconn.graphs import complete_bipartite\n"
        "from pathconn.steiner import global_connectivity\n"
        "r = global_connectivity(complete_bipartite(3, 3), 3, 'pi', budget_ms=50)\n"
        "print(r.value, r.status, r.units, r.terminals)\n"
    )
    outs = []
    for name in ("pure", "compiled"):
        env = dict(os.environ, PATHCONN_BACKEND=name)
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
