"""The README's library example runs and states what it returns."""

import re
from pathlib import Path

from pathconn.witness import family_violations

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs_as_documented():
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    ns: dict = {}
    exec(code, ns)
    r = ns["r"]
    assert (r.value, r.status) == (2, "exact")
    family = r.certificate.family
    assert len(family) == 2
    assert family_violations(ns["complete_bipartite"](4, 4), r.terminals,
                             family, "pi") == []
