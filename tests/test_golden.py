"""Committed outputs of every preset, checked byte for byte.

tests/golden/ holds, as the CLI writes them at the preset's own trials and seed,
<preset>.csv: `sweep --preset <preset> --engines a,asy`, montecarlo/<preset>.csv:
`sweep --engines m` and validate/<preset>.json: the `validate --json` report;
FINGERPRINT.json holds the numpy version, machine and enabled CPU features that
computed them (golden/regenerate.sh writes all of them).  Where the running
build has that fingerprint every file must match byte for byte.  Elsewhere
numpy may dispatch other loops, so the test says so and compares numbers within
1e-12 relative in the CSVs, and within 1e-12 absolute in the validate reports,
whose numbers are probabilities and their differences: a gap |analytic - mc|
keeps the absolute, not the relative, round-off of its operands.  Text (flags,
statuses, details) must still match.  The Monte Carlo cells are outage counts
over the trials, which a build moves only where a SINR sits within round-off of
its threshold.  With numpy's AVX-512 loops disabled (NPY_DISABLE_CPU_FEATURES=
"X86_V4 AVX512_ICL AVX512_SPR") no Monte Carlo cell of any preset moved, and 9
validate cells of fig7, fig8, fig10 and fig11 moved by at most 1.1e-16, within
this rule (fig10's gap 4.22e-14 -> 4.21e-14 is 2.6e-3 relative).  Under that
build fig10's closed-form throughput cell, at an SOP within 4e-14 of 1, moves
by 2.6e-3 relative and fails the CSV rule.  The draws come from numpy Generator
distributions, which a numpy release may change (NEP 19): that shows as a
fingerprint mismatch and many moved cells.  A mismatch names each moved cell.
"""

from __future__ import annotations

import csv
import json
import math
import platform
import warnings
from pathlib import Path

import numpy as np
import pytest

from ris_secrecy import cli
from ris_secrecy.config import list_presets

GOLDEN = Path(__file__).parent / "golden"
RELAXED_RTOL = 1e-12
ROW_KEY = ("value", "scenario", "sic", "mode", "engine")
CHECK_KEY = ("check", "scenario", "sic", "mode")


def fingerprint() -> dict:
    """What a golden's bytes depend on besides the source: numpy's version and
    the machine and CPU features its compiled loops are chosen by."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__

    return {"cpu_features": sorted(name for name, on in __cpu_features__.items() if on),
            "machine": platform.machine(), "numpy": np.__version__}


def _leaves(node, path: str):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, f"{path}.{key}")
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, node


def _cells(text: bytes) -> list[tuple[str, object]]:
    """(name, value) of every meta field and every row cell of a sweep CSV."""
    meta, header, *rows = text.decode("utf-8").splitlines()
    cells = list(_leaves(json.loads(meta.removeprefix("# meta ")), "meta"))
    columns = header.split(",")
    for i, row in enumerate(csv.reader(rows)):
        fields = dict(zip(columns, row))
        where = f"row {i} ({', '.join(fields[k] for k in ROW_KEY)})"
        cells += [(f"{where} {column}", value) for column, value in fields.items()]
    return cells


def _checks(text: bytes) -> list[tuple[str, object]]:
    """(name, value) of every field of every check of a `validate --json` report."""
    return [(f"check {i} ({', '.join(check[k] for k in CHECK_KEY)}) {field}", value)
            for i, check in enumerate(json.loads(text)["checks"]) for field, value in check.items()]


def _same(want, got, rtol: float, atol: float) -> bool:
    if want == got:
        return True
    try:
        return math.isclose(float(want), float(got), rel_tol=rtol, abs_tol=atol)
    except (TypeError, ValueError):
        return False


def moved_cells(want: bytes, got: bytes, rtol: float, cells=_cells, atol: float = 0.0) -> list[str]:
    """'name: golden -> now' for each cell of got that differs from want beyond rtol
    relative and atol absolute; cells splits a file into named cells (_cells: a CSV)."""
    old, new = cells(want), cells(got)
    if [name for name, _ in old] != [name for name, _ in new]:
        return [f"the rows themselves: {len(old)} golden cells, {len(new)} now"]
    return [f"{name}: {a!r} -> {b!r}" for (name, a), (_, b) in zip(old, new) if not _same(a, b, rtol, atol)]


def test_every_preset_has_a_golden():
    assert sorted(path.stem for path in GOLDEN.glob("*.csv")) == sorted(list_presets())
    for kind, suffix in (("montecarlo", ".csv"), ("validate", ".json")):
        assert sorted(path.stem for path in (GOLDEN / kind).glob("*" + suffix)) == sorted(list_presets())


def _matches_golden(golden: Path, got: bytes, cells=_cells, atol: float = 0.0):
    want = golden.read_bytes()
    name = golden.relative_to(GOLDEN)
    recorded = json.loads((GOLDEN / "FINGERPRINT.json").read_text(encoding="utf-8"))
    if recorded == fingerprint():
        moved = moved_cells(want, got, 0.0, cells) if got != want else []
        assert got == want, f"{name}: {len(moved)} cells moved:\n" + "\n".join(moved or ["(bytes only)"])
        return
    warnings.warn(f"{name}: numpy build differs from tests/golden/FINGERPRINT.json; "
                  f"compared within {RELAXED_RTOL:g} relative or {atol:g} absolute, not byte for byte")
    moved = moved_cells(want, got, RELAXED_RTOL, cells, atol)
    assert not moved, f"{name}: {len(moved)} cells moved beyond the bound:\n" + "\n".join(moved)


@pytest.mark.parametrize("preset", list_presets())
def test_closed_form_sweep_matches_its_golden(preset, tmp_path):
    out = tmp_path / f"{preset}.csv"
    assert cli.main(["sweep", "--preset", preset, "--engines", "a,asy", "--out", str(out)]) == cli.EXIT_OK
    _matches_golden(GOLDEN / f"{preset}.csv", out.read_bytes())


@pytest.mark.parametrize("preset", list_presets())
def test_monte_carlo_sweep_matches_its_golden(preset, tmp_path):
    out = tmp_path / f"{preset}.csv"
    assert cli.main(["sweep", "--preset", preset, "--engines", "m", "--out", str(out)]) == cli.EXIT_OK
    _matches_golden(GOLDEN / "montecarlo" / f"{preset}.csv", out.read_bytes())


@pytest.mark.parametrize("preset", list_presets())
def test_validate_report_matches_its_golden(preset, tmp_path, capsys):
    out = tmp_path / f"{preset}.json"
    code = cli.main(["validate", "--preset", preset, "--json", str(out)])
    capsys.readouterr()  # the text report repeats the JSON one
    assert code in (cli.EXIT_OK, cli.EXIT_INFEASIBLE, cli.EXIT_VALIDATION)
    _matches_golden(GOLDEN / "validate" / f"{preset}.json", out.read_bytes(), _checks, RELAXED_RTOL)


def test_moved_cells_are_named():
    # one estimate nudged by 1e-9 relative is named, by row, key and column, in both modes
    want = (GOLDEN / "fig2.csv").read_bytes()
    meta, header, *lines = want.decode("utf-8").split("\n")
    i, row = next((i, row) for i, row in enumerate(csv.reader(lines)) if row and float(row[7] or 0.0))
    row[7] = repr(float(row[7]) * (1.0 + 1e-9))
    lines[i] = ",".join(row)
    got = "\n".join([meta, header, *lines]).encode("utf-8")
    assert moved_cells(want, want, 0.0) == []
    for rtol in (0.0, RELAXED_RTOL):
        [moved] = moved_cells(want, got, rtol)
        assert moved.startswith(f"row {i} ({', '.join(row[1:6])}) estimate: "), moved


def test_moved_checks_are_named():
    # a validate report's moved field is named by check index, key and field
    want = (GOLDEN / "validate" / "fig2.json").read_bytes()
    doc = json.loads(want)
    doc["checks"][0]["gap"] *= 2.0
    got = json.dumps(doc).encode("utf-8")
    c = doc["checks"][0]
    [moved] = moved_cells(want, got, RELAXED_RTOL, _checks, RELAXED_RTOL)
    assert moved.startswith(f"check 0 ({c['check']}, {c['scenario']}, {c['sic']}, {c['mode']}) gap: "), moved
