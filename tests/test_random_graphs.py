import random

import pytest

from pathconn.graphs import InputError
from pathconn.invariants import connectivity
from pathconn.random_graphs import (
    REQUIREMENTS, RandomGraphSpec, meets_requirement, sample_graph,
    sample_graphs,
)


def test_spec_validation():
    with pytest.raises(InputError):
        RandomGraphSpec(n_min=0)
    with pytest.raises(InputError):
        RandomGraphSpec(n_min=5, n_max=4)
    with pytest.raises(InputError):
        RandomGraphSpec(m_min=3, m_max=2)
    with pytest.raises(InputError):
        RandomGraphSpec(requirement="planar")


def test_samples_respect_ranges_and_requirement():
    spec = RandomGraphSpec(n_min=4, n_max=6, m_min=4, m_max=9,
                           requirement="2-connected")
    for g in sample_graphs(spec, seed=3, count=30):
        assert 4 <= g.n <= 6
        assert g.m <= 9
        assert connectivity(g) >= 2


def test_requirement_predicates():
    spec = RandomGraphSpec(n_min=4, n_max=6, m_min=0, m_max=10,
                           requirement="none")
    rng = random.Random(9)
    seen = set()
    for _ in range(40):
        g = sample_graph(spec, rng)
        for req in REQUIREMENTS:
            if meets_requirement(g, req):
                seen.add(req)
        assert meets_requirement(g, "none")
        assert meets_requirement(g, "connected") == g.is_connected()
        assert meets_requirement(g, "2-connected") == (connectivity(g) >= 2)
    assert "none" in seen


def test_same_seed_same_graphs():
    spec = RandomGraphSpec(requirement="connected")
    assert sample_graphs(spec, seed=7, count=20) == sample_graphs(
        spec, seed=7, count=20)
    assert sample_graphs(spec, seed=7, count=20) != sample_graphs(
        spec, seed=8, count=20)


def test_unsatisfiable_requirement_raises():
    # 4+ vertices with at most one edge can never be connected
    spec = RandomGraphSpec(n_min=4, n_max=5, m_min=0, m_max=1,
                           requirement="connected", max_tries=200)
    with pytest.raises(InputError):
        sample_graph(spec, random.Random(0))
