"""Seeded random graph sampling for the verification suites.

Sampling is a pure function of the seed: uniform over labeled graphs with
the requested vertex and edge counts, rejection-sampled until the
connectivity requirement holds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from .graphs import Graph, InputError
from .invariants import connectivity

REQUIREMENTS = ("none", "connected", "2-connected")


@dataclass(frozen=True)
class RandomGraphSpec:
    """Vertex range, edge range, and the requirement sampled graphs satisfy."""

    n_min: int = 4
    n_max: int = 7
    m_min: int = 0
    m_max: int = 12
    requirement: str = "connected"
    max_tries: int = 100_000

    def __post_init__(self):
        if self.requirement not in REQUIREMENTS:
            raise InputError(f"unknown requirement {self.requirement!r}; "
                             f"expected one of {', '.join(REQUIREMENTS)}")
        if not 1 <= self.n_min <= self.n_max:
            raise InputError("need 1 <= n_min <= n_max")
        if self.m_min > self.m_max:
            raise InputError("need m_min <= m_max")


def meets_requirement(g: Graph, requirement: str) -> bool:
    if requirement == "none":
        return True
    if requirement == "connected":
        return g.is_connected()
    if requirement == "2-connected":
        return g.n >= 3 and connectivity(g) >= 2
    raise InputError(f"unknown requirement {requirement!r}")


def sample_graph(spec: RandomGraphSpec, rng: random.Random) -> Graph:
    """One graph satisfying the spec, advancing the supplied RNG."""
    for _ in range(spec.max_tries):
        n = rng.randint(spec.n_min, spec.n_max)
        pairs = list(combinations(range(n), 2))
        lo = max(spec.m_min, 0)
        hi = min(spec.m_max, len(pairs))
        if lo > hi:
            continue
        m = rng.randint(lo, hi)
        g = Graph(n, tuple(rng.sample(pairs, m)))
        if meets_requirement(g, spec.requirement):
            return g
    raise InputError(
        f"no graph satisfying {spec.requirement!r} found in {spec.max_tries} tries")


def sample_graphs(spec: RandomGraphSpec, seed: int, count: int) -> list[Graph]:
    rng = random.Random(seed)
    return [sample_graph(spec, rng) for _ in range(count)]
