"""Layer spans recorded from outside the library.

The tracer replaces the attributes through which ``pathconn.steiner``
reaches each layer with timing wrappers, and puts the originals back on
exit, so untraced passes run the library exactly as shipped.  Spans are
kept in memory as tuples::

    (name, parent, start, end, key, units, count, complete)

where parent is the index of the query span that caused the call, key the
terminal set (a bitmask for kernel calls, a tuple for bounds), and units,
count and complete are read from the call's return value (work units,
candidates returned, and whether the call ran to completion).  Query spans
are added by the runner with name "query", parent None and key = the
query's index.
"""

from __future__ import annotations

import time

import pathconn._backend
import pathconn.steiner
import pathconn.witness

QUERY = "query"
ENUM_PATHS = "kernel.enum_paths"
PACK = "kernel.pack"
TREES = "trees.enum"
BOUNDS = "steiner.bounds"
CHECK = "witness.check"


def _enum_paths(args, out):  # (n, adj, smask, cap, budget) -> (paths, complete, units)
    return args[2], out[2], len(out[0]), out[1]


def _trees(args, out):  # (n, adj, edges, smask, cap, budget) -> (trees, complete, units)
    return args[3], out[2], len(out[0]), out[1]


def _pack(args, out):  # (n, m, eid, cands, is_tree, smask, ...) -> (best, sel, complete, units)
    return args[5], out[3], len(args[3]), out[2]


def _bounds(args, out):  # (g, s, variant) -> int
    return tuple(args[1]), 0, 0, True


def _check(args, out):  # (g, s, family, variant) -> [problems]
    return None, 0, 0, not out


def targets():
    """(owner, attribute, span name, reader) for every wrapped layer call."""
    impl = pathconn._backend.impl
    return (
        (impl, "enumerate_paths", ENUM_PATHS, _enum_paths),
        (impl, "solve_pack", PACK, _pack),
        (pathconn.steiner, "_enumerate_trees", TREES, _trees),
        (pathconn.steiner, "local_upper_bound", BOUNDS, _bounds),
        (pathconn.witness, "family_violations", CHECK, _check),
    )


class Tracer:
    """Context manager that wraps the layer calls and collects spans."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.query: int | None = None
        self._saved: list[tuple] = []

    def _wrap(self, fn, name, reader):
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            t0 = clock()
            out = fn(*args, **kwargs)
            t1 = clock()
            spans.append((name, self.query, t0, t1) + reader(args, out))
            return out

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        for owner, attr, name, reader in targets():
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, reader))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)
        self.query = None

    def add_query(self, index: int, start: float, end: float) -> None:
        self.spans.append((QUERY, None, start, end, index, 0, 0, True))
