"""Committed closed-form outputs of every preset, checked byte for byte.

tests/golden/<preset>.csv holds `sweep --preset <preset> --engines a,asy` as the
CLI writes it, and FINGERPRINT.json the numpy version, machine and enabled CPU
features that computed them (golden/regenerate.sh writes all of them).  Where
the running build has that fingerprint the CSVs must match byte for byte;
elsewhere numpy may dispatch other loops, so numbers are compared within 1e-12
relative and the test says so.  A mismatch names each moved cell.
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


def _same(want, got, rtol: float) -> bool:
    if want == got:
        return True
    try:
        return math.isclose(float(want), float(got), rel_tol=rtol, abs_tol=0.0)
    except (TypeError, ValueError):
        return False


def moved_cells(want: bytes, got: bytes, rtol: float) -> list[str]:
    """'name: golden -> now' for each cell of got that differs from want beyond rtol."""
    old, new = _cells(want), _cells(got)
    if [name for name, _ in old] != [name for name, _ in new]:
        return [f"the rows themselves: {len(old)} golden cells, {len(new)} now"]
    return [f"{name}: {a!r} -> {b!r}" for (name, a), (_, b) in zip(old, new) if not _same(a, b, rtol)]


def test_every_preset_has_a_golden():
    assert sorted(path.stem for path in GOLDEN.glob("*.csv")) == sorted(list_presets())


@pytest.mark.parametrize("preset", list_presets())
def test_closed_form_sweep_matches_its_golden(preset, tmp_path):
    out = tmp_path / f"{preset}.csv"
    assert cli.main(["sweep", "--preset", preset, "--engines", "a,asy", "--out", str(out)]) == cli.EXIT_OK
    got, want = out.read_bytes(), (GOLDEN / f"{preset}.csv").read_bytes()
    recorded = json.loads((GOLDEN / "FINGERPRINT.json").read_text(encoding="utf-8"))
    if recorded == fingerprint():
        moved = moved_cells(want, got, 0.0) if got != want else []
        assert got == want, f"{preset}: {len(moved)} cells moved:\n" + "\n".join(moved or ["(bytes only)"])
        return
    warnings.warn(f"{preset}: numpy build differs from tests/golden/FINGERPRINT.json; "
                  f"compared within {RELAXED_RTOL:g} relative, not byte for byte")
    moved = moved_cells(want, got, RELAXED_RTOL)
    assert not moved, f"{preset}: {len(moved)} cells moved beyond {RELAXED_RTOL:g}:\n" + "\n".join(moved)


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
