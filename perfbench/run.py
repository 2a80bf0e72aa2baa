"""Benchmark entry point for ris-secrecy.

    python3 perfbench/run.py --workload mc_sweep --seed 1 --seconds 20 --trace 0

Run from the repository root.  The package is imported from ``src/`` of
the same checkout (nothing to build); without it the command exits 2 and
prints no result.

Workloads (inputs generated from --seed by ``gen.py``, parsed with
``config.parse_config``, driven from this one process):

* ``mc_sweep``       ``cli.run_sweep(cfg, workers=2)``, Monte Carlo engine only;
* ``analytic_sweep`` ``cli.run_sweep(cfg, workers=1)``, closed-form engines only;
* ``validate``       ``cli.validate_point`` at generated base points.

``--trace 0`` prints the end-to-end metrics: set-up time (median of fresh
processes that import the package and make the first call of each entry
point on a tiny input), median pass wall time, output cells per second and
peak resident memory.  ``--trace 1`` prints the per-layer metrics of one
traced pass at ``workers=1`` (see ``spans.py``).  Either way every pass is
checked (``check.py``); the last stdout line is one JSON object, and the
exit code is 1 when any output cell fails its check.  Timings, the machine
record and, with --trace 1, the spans go to a sidecar in ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("mc_sweep", "analytic_sweep", "validate")
# the Monte Carlo sweep is the only workload whose pass starts a worker pool
WORKERS = {"mc_sweep": 2, "analytic_sweep": 1, "validate": 1}
SETUP_PROBES = 5
MIN_PASSES = 3

sys.path.insert(0, str(HERE))
import check  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402


class PackageMissing(RuntimeError):
    """The checkout holds no importable ris_secrecy package under src/."""


def import_package():
    """Import ris_secrecy from this checkout only; returns (cli, config, model, analytic, specfun)."""
    if not (SRC / "ris_secrecy" / "__init__.py").is_file():
        raise PackageMissing(f"no package at {SRC / 'ris_secrecy'}")
    sys.path.insert(0, str(SRC))
    from ris_secrecy import analytic, cli, config, model, specfun

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise PackageMissing(f"ris_secrecy imported from {cli.__file__}, not {SRC}")
    return cli, config, model, analytic, specfun


def run_pass(workload: str, entry, cfgs, workers: int) -> list[list[dict]]:
    """One pass over the workload's configs through its public entry point."""
    if workload == "validate":
        return [entry(c, c.sweep.trials, c.sweep.seed) for c in cfgs]
    return [entry(c, workers=workers) for c in cfgs]


def entry_point(workload: str, cli):
    return cli.validate_point if workload == "validate" else cli.run_sweep


def warm_up(workload: str, cli, config) -> None:
    """First call of each entry point the workload uses, on a tiny input."""
    cfgs = [config.parse_config(d) for d in gen.tiny_docs(workload)]
    run_pass(workload, entry_point(workload, cli), cfgs, WORKERS[workload])


def count_cells(workload: str, outputs) -> int:
    if workload == "validate":
        return sum(len(checks) for checks in outputs)
    return sum(1 for rows in outputs for r in rows if r["estimate"] is not None)


def machine() -> dict:
    import numpy
    import scipy

    return {"cores": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_seconds() -> float:
    """CPU time of this process and its reaped children (pool workers, probes).

    Unlike wall time it leaves out the time a shared host runs other guests
    on this machine's processors (steal).
    """
    return sum(u.ru_utime + u.ru_stime for u in (resource.getrusage(resource.RUSAGE_SELF),
                                                 resource.getrusage(resource.RUSAGE_CHILDREN)))


def setup_times(workload: str, n: int) -> list[dict]:
    """Wall and CPU set-up seconds of n fresh processes (see setup_probe.py)."""
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


class Gate:
    """Runs passes and counts attempted and failed output cells over all of them.

    The first pass that returns is checked against the invariants and the
    shipped reference; every later one must serialize to the same bytes.  A
    pass that raises fails every cell it would have produced.
    """

    def __init__(self, workload, seed, cfgs):
        self.workload = workload
        self.reference = check.load_reference(workload, seed)
        self.trials = [c.sweep.trials for c in cfgs]
        # rows a sweep yields; validate yields at least one check per row
        self.planned = sum(len(c.sweep.scenarios) * (1 if workload == "validate" else
                                                     len(c.sweep.values) * len(c.sweep.engines))
                           for c in cfgs)
        self.first = None
        self.attempted = self.failed = 0

    def run(self, fn):
        """(outputs, wall s, cpu s) of one checked pass; outputs is None if it raised."""
        t0, c0 = time.perf_counter(), cpu_seconds()
        try:
            outputs = fn()
        except Exception:
            traceback.print_exc()
            self.attempted += self.planned
            self.failed += self.planned
            return None, time.perf_counter() - t0, cpu_seconds() - c0
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
        cells = sum(len(items) for items in outputs)
        self.attempted += cells
        text = check.canonical(outputs)
        if self.first is None:
            self.first = text
            self.failed += check.invariant_failures(self.workload, outputs)
            self.failed += check.reference_failures(self.workload, outputs, self.reference,
                                                    self.trials)
        elif text != self.first:
            self.failed += cells
        return outputs, wall, cpu


def _median(values) -> float:
    return statistics.median(values) if values else math.nan


def measure_end_to_end(workload, seed, seconds, modules, docs):
    cli, config, *_ = modules
    cfgs = [config.parse_config(d) for d in docs]
    gate = Gate(workload, seed, cfgs)
    entry = entry_point(workload, cli)
    warm_up(workload, cli, config)
    # untimed reference pass at one worker: later passes must match it byte for byte
    gate.run(lambda: run_pass(workload, entry, cfgs, 1))
    setup = setup_times(workload, SETUP_PROBES)
    walls, cpus, cells, passes = [], [], 0, 0
    start = time.perf_counter()
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        outputs, wall, cpu = gate.run(lambda: run_pass(workload, entry, cfgs, WORKERS[workload]))
        passes += 1
        if outputs is not None:
            walls.append(wall)
            cpus.append(cpu)
            cells = count_cells(workload, outputs)
    wall, cpu = _median(walls), _median(cpus)
    # gated: CPU time leaves out the host's steal, which moved wall-clock
    # medians by up to a third between runs minutes apart on a shared 2-core VM
    metrics = {
        "setup_s": (statistics.median(p["cpu_s"] for p in setup), "s"),
        "cpu_s": (cpu, "s"),
        "cells_per_cpu_s": (cells / cpu, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    # printed and kept in the sidecar, not bounded: what a user waits for
    info = {
        "setup_wall_s": (statistics.median(p["wall_s"] for p in setup), "s"),
        "wall_s": (wall, "s"),
        "cells_per_s": (cells / wall, "1/s"),
    }
    sidecar = {"setup": setup, "pass_wall_s": walls, "pass_cpu_s": cpus, "cells_per_pass": cells}
    return metrics, info, gate, sidecar


def measure_layers(workload, seed, seconds, modules, docs):
    cli, config, model, analytic, specfun = modules
    tracer = spans.Tracer()
    layer_targets = spans.targets(cli, model, analytic, specfun)
    cfgs = [config.parse_config(d) for d in docs]
    gate = Gate(workload, seed, cfgs)
    entry = entry_point(workload, cli)

    # the traced set-up is where the quadrature table is first built
    tracer.pass_id = "setup"
    with tracer.patched(layer_targets):
        warm_up(workload, cli, config)
    gate.run(lambda: run_pass(workload, entry, cfgs, 1))

    walls = {1: [], 2: []}
    start = time.perf_counter()
    while True:
        for workers in (1, 2):
            outputs, wall, _ = gate.run(lambda: run_pass(workload, entry, cfgs, workers))
            if outputs is not None:
                walls[workers].append(wall)
        if time.perf_counter() - start >= seconds:
            break

    tracer.pass_id = "traced"
    t0 = time.perf_counter()
    parse = tracer.wrap(config.parse_config, "config.parse")
    traced_cfgs = [parse(d) for d in docs]
    with tracer.patched(layer_targets):
        traced_entry = tracer.wrap(entry, f"cli.{entry.__name__}")
        gate.run(lambda: run_pass(workload, traced_entry, traced_cfgs, 1))
    traced_wall = time.perf_counter() - t0

    untraced = _median(walls[1])
    layers = spans.layer_metrics(tracer.spans, "traced")
    setup_layers = spans.layer_metrics(tracer.spans, "setup")
    # the quadrature table is built once per process, during set-up
    layers["specfun.gauss_laguerre.self_s"] = setup_layers["specfun.gauss_laguerre.self_s"]
    layers["cli.pool.speedup"] = untraced / _median(walls[2])
    layers["bench.trace_overhead_ratio"] = traced_wall / untraced
    layers["bench.traced_wall_s"] = traced_wall
    layers["bench.wall_s"] = _median(walls[WORKERS[workload]])
    sidecar = {"untraced_wall_s": walls, "traced_wall_s": traced_wall,
               "setup_layers": setup_layers,
               "draws_per_config": spans.draws_by_entry(tracer.spans, "traced"),
               "counts_source": "computed from call arguments and results",
               "spans": tracer.to_json()}
    return {k: (v, layer_unit(k)) for k, v in layers.items()}, {}, gate, sidecar


UNITS = {"calls": "count", "elements": "count", "cells": "count", "blocks_drawn": "count",
         "trials_requested": "count", "trials_drawn": "count", "infeasible_cells": "count",
         "shape_groups": "count", "self_s": "s", "traced_wall_s": "s", "wall_s": "s",
         "draw_us_per_trial": "us", "cell_ms_p50": "ms", "cell_ms_p99": "ms"}


def layer_unit(name: str) -> str:
    if name.startswith("analytic.flags."):
        return "count"
    return UNITS.get(name.rsplit(".", 1)[-1], "ratio")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        modules = import_package()
    except (PackageMissing, ImportError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    docs = gen.GENERATORS[args.workload](args.seed)
    measure = measure_layers if args.trace else measure_end_to_end
    metrics, info, gate, sidecar = measure(args.workload, args.seed, args.seconds, modules, docs)

    failed_ratio = gate.failed / gate.attempted
    OUT.mkdir(exist_ok=True)
    sidecar_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    sidecar_path.write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "machine": machine(),
         "reference_checked": gate.reference is not None, "attempted": gate.attempted,
         "failed": gate.failed, **sidecar}, allow_nan=True))

    for name, (value, unit) in {**metrics, **info}.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(f"{args.workload} failed_ratio {failed_ratio:.6g} ratio "
          f"({gate.failed} of {gate.attempted} cells; reference "
          f"{'checked' if gate.reference is not None else 'not shipped for this seed'})")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
