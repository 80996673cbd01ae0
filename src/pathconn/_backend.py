"""Kernel backend selection.

Importing this module picks the compiled kernel when it is built and falls
back to the pure-Python twin otherwise.  Set PATHCONN_BACKEND=pure to force
the fallback, or PATHCONN_BACKEND=compiled to require the extension.
"""

from __future__ import annotations

import os

_forced = os.environ.get("PATHCONN_BACKEND", "").strip().lower()

if _forced == "pure":
    from . import _pure as impl
elif _forced == "compiled":
    from . import _kernel as impl  # type: ignore[attr-defined]
elif _forced:
    raise RuntimeError(f"unknown PATHCONN_BACKEND value {_forced!r}")
else:
    try:
        from . import _kernel as impl  # type: ignore[attr-defined]
    except ImportError:
        from . import _pure as impl

BACKEND: str = impl.BACKEND_NAME
