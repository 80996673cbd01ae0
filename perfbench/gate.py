"""Correctness gate: every answer is checked after its query, untimed.

A query's reference is the interval lo <= value <= hi carried by the Query
(either end may be None).  The gate accepts an answer when

* every returned family passes ``witness.family_violations`` at the
  query's terminals, and for a decided value its size equals the value;
* an exact (or zero) value lies in the reference interval, so it equals
  the reference wherever one is known;
* a lower bound does not exceed hi;
* a ``no`` is consistent with lo (lo < t), and a ``yes`` with hi (t <= hi);
  a ``yes`` from ``pack_at_least`` carries a verified family of size >= t.

``global_at_least`` returns a bare answer with no family, so only the
reference checks apply to it.
"""

from __future__ import annotations

from dataclasses import dataclass

from pathconn.steiner import (EXACT, LOWER_BOUND, ZERO, GlobalResult,
                              PackDecision, PackingCertificate)
from pathconn.witness import family_violations

from workloads import Query

DECIDED = (EXACT, ZERO, "yes", "no")


@dataclass(frozen=True)
class Outcome:
    """What the benchmark keeps of an answer.

    signature must repeat exactly on every pass; units is None where the
    API does not return a unit count (local_connectivity, global_at_least).
    """

    decided: bool
    units: int | None
    signature: tuple


def outcome(result) -> Outcome:
    if isinstance(result, GlobalResult):
        cert = result.certificate
        family = None if cert is None else cert.family
        return Outcome(result.status in DECIDED, result.units,
                       (result.value, result.status, result.terminals, family,
                        result.units))
    if isinstance(result, PackingCertificate):
        return Outcome(result.status in DECIDED, None,
                       (result.value, result.status, result.family))
    if isinstance(result, PackDecision):
        family = None if result.certificate is None else result.certificate.family
        return Outcome(result.answer in DECIDED, result.units,
                       (result.answer, family, result.units))
    return Outcome(result in DECIDED, None, (result,))


def _family_problems(q: Query, g, cert: PackingCertificate) -> list[str]:
    problems = [f"witness: {p}" for p in
                family_violations(g, cert.terminals, cert.family, q.variant)]
    if len(cert.terminals) != q.k:
        problems.append(f"witness has {len(cert.terminals)} terminals, want {q.k}")
    if q.terminals is not None and tuple(cert.terminals) != q.terminals:
        problems.append(f"witness at {cert.terminals}, asked {q.terminals}")
    return problems


def _value_problems(q: Query, value: int, status: str, cert) -> list[str]:
    """A decided value needs its witness; a lower bound may come without one
    (a budgeted global scan that solved no terminal set exactly)."""
    problems = []
    if status in (EXACT, ZERO):
        if cert is None:
            return [f"{status} value {value} without a certificate"]
        if len(cert.family) != value:
            problems.append(f"family size {len(cert.family)} != value {value}")
        if (q.lo is not None and value < q.lo) or (q.hi is not None and value > q.hi):
            problems.append(f"{status} value {value} outside reference "
                            f"[{q.lo}, {q.hi}] ({q.source})")
    elif status == LOWER_BOUND:
        if cert is not None and len(cert.family) < value:
            problems.append(f"lower bound {value} above its family size {len(cert.family)}")
        if q.hi is not None and value > q.hi:
            problems.append(f"lower bound {value} above reference {q.hi} ({q.source})")
    else:
        problems.append(f"unknown status {status!r}")
    return problems


def _decision_problems(q: Query, answer: str) -> list[str]:
    if answer == "yes" and q.hi is not None and q.t > q.hi:
        return [f"yes at t={q.t} but reference value is {q.hi} ({q.source})"]
    if answer == "no" and q.lo is not None and q.lo >= q.t:
        return [f"no at t={q.t} but reference value is >= {q.lo} ({q.source})"]
    if answer not in ("yes", "no", "unknown"):
        return [f"unknown answer {answer!r}"]
    return []


def violations(q: Query, g, result) -> list[str]:
    """Every reason the answer fails the gate; empty when it passes."""
    if q.op == "global":
        cert = result.certificate
        problems = [] if cert is None else _family_problems(q, g, cert)
        return problems + _value_problems(q, result.value, result.status, cert)
    if q.op == "local":
        return (_family_problems(q, g, result)
                + _value_problems(q, result.value, result.status, result))
    if q.op == "pack":
        cert = result.certificate
        problems = [] if cert is None else _family_problems(q, g, cert)
        if result.answer == "yes" and (cert is None or len(cert.family) < q.t):
            problems.append(f"yes at t={q.t} without a family of that size")
        return problems + _decision_problems(q, result.answer)
    if q.op == "at_least":
        return _decision_problems(q, result)
    return [f"unknown op {q.op!r}"]
