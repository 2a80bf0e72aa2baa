"""Output correctness gate.

Three checks, each counted per output cell (sweep row or validate check):

* invariants that hold for any seed: a row carries a finite estimate unless
  it is flagged infeasible or unsupported, Monte Carlo SOPs and clamped
  closed-form SOPs lie in [0, 1], and a Monte Carlo stderr is the binomial
  one of its own estimate;
* byte identity of the serialized output across passes and worker counts
  (done by the caller with ``canonical``);
* for the seeds shipped in ``refs/``, agreement with the values recorded at
  the commit that defined the benchmark: closed-form numbers within 1e-9
  (relative above 1), Monte Carlo numbers within 5 combined standard errors,
  so an exact-in-law sampler rewrite still passes.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"
CLOSED_TOL = 1e-9
MC_SIGMAS = 5.0
# fields left out of the structural digest: they may move within tolerance
_ROW_UNKEYED = ("estimate", "stderr")
_CHECK_UNKEYED = ("analytic", "montecarlo", "gap", "tolerance", "detail", "status")


def canonical(outputs) -> str:
    return json.dumps(outputs, sort_keys=True, allow_nan=True)


def _finite(x) -> bool:
    return isinstance(x, float) and math.isfinite(x)


def row_ok(row: dict) -> bool:
    flags = row["flags"].split("|") if row["flags"] else []
    if "infeasible" in flags or "unsupported" in flags:
        return row["estimate"] is None
    est = row["estimate"]
    if not _finite(est):
        return False
    if row["engine"] == "montecarlo":
        err = row["stderr"]
        if not (_finite(err) and isinstance(row["trials"], int) and row["trials"] >= 1):
            return False
        if row["metric"] == "sop":
            expect = math.sqrt(est * (1.0 - est) / row["trials"])
            return 0.0 <= est <= 1.0 and math.isclose(err, expect, rel_tol=1e-12, abs_tol=1e-300)
        return True
    if row["engine"] == "analytic" and row["metric"] == "sop":
        return 0.0 <= est <= 1.0
    return True


def check_ok(check: dict) -> bool:
    if check["status"] == "skip":
        return True
    if check["status"] not in ("pass", "fail"):
        return False
    if not (_finite(check["gap"]) and _finite(check["tolerance"])):
        return False
    if check["check"] == "sop":
        return all(_finite(check[k]) and 0.0 <= check[k] <= 1.0 for k in ("analytic", "montecarlo"))
    return True


def invariant_failures(workload: str, outputs) -> int:
    ok = check_ok if workload == "validate" else row_ok
    return sum(1 for items in outputs for item in items if not ok(item))


# ---------------------------------------------------------------------------
# recorded references


def _digest(items) -> str:
    return hashlib.sha256(canonical(items).encode()).hexdigest()


def _short(x):
    # 12 significant digits: a thousand times finer than the closed-form tolerance
    return None if x is None else float(f"{x:.12g}")


def _sweep_record(rows) -> dict:
    keys = [{k: v for k, v in r.items() if k not in _ROW_UNKEYED} for r in rows]
    return {"keys_sha256": _digest(keys),
            "values": [[_short(r["estimate"]), _short(r["stderr"])] for r in rows]}


def _validate_record(checks) -> dict:
    keys = [{k: v for k, v in c.items() if k not in _CHECK_UNKEYED} for c in checks]
    return {"keys_sha256": _digest(keys),
            "values": [[_short(c.get(k)) for k in ("analytic", "montecarlo", "gap", "tolerance")]
                       for c in checks]}


def make_record(workload: str, outputs) -> list[dict]:
    make = _validate_record if workload == "validate" else _sweep_record
    return [make(items) for items in outputs]


def _closed_close(x, ref) -> bool:
    return abs(x - ref) <= CLOSED_TOL * max(1.0, abs(ref))


def _sweep_row_matches(row, ref) -> bool:
    est, ref_est = row["estimate"], ref[0]
    if est is None or ref_est is None:
        return est is None and ref_est is None
    if row["engine"] == "montecarlo":
        sigma = math.hypot(row["stderr"], ref[1])
        return abs(est - ref_est) <= MC_SIGMAS * sigma
    return _closed_close(est, ref_est)


def _binomial_se(p, trials) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / trials)


def _check_matches(check, ref, trials: int) -> bool:
    analytic, montecarlo, gap, tol = ref
    if check["status"] == "skip" or gap is None:
        return check["status"] == "skip" and gap is None
    if check["check"] == "sop":
        sigma = math.hypot(_binomial_se(check["montecarlo"], trials),
                           _binomial_se(montecarlo, trials))
        return (_closed_close(check["analytic"], analytic)
                and abs(check["montecarlo"] - montecarlo) <= MC_SIGMAS * sigma)
    # distribution checks mix both engines; their own tolerance bounds the gap
    return abs(check["gap"] - gap) <= max(check["tolerance"], tol)


def load_reference(workload: str, seed: int):
    path = REFS / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(str(seed))


def reference_failures(workload: str, outputs, reference, trials_per_output) -> int:
    """Cells that disagree with the recorded reference (0 when none is shipped)."""
    if reference is None:
        return 0
    if len(reference) != len(outputs):
        return sum(len(items) for items in outputs)
    failed = 0
    for items, rec, trials in zip(outputs, reference, trials_per_output):
        now = make_record(workload, [items])[0]
        if now["keys_sha256"] != rec["keys_sha256"] or len(items) != len(rec["values"]):
            failed += len(items)
            continue
        for item, ref in zip(items, rec["values"]):
            ok = (_check_matches(item, ref, trials) if workload == "validate"
                  else _sweep_row_matches(item, ref))
            failed += not ok
    return failed
