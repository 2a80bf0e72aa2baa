"""Machine record and baseline probe of single layers through public functions.

    python3 perfbench/probe.py

Prints one JSON object: the machine (cores from os.sched_getaffinity, Python,
numpy and scipy versions) and, per row, the median and minimum of REPEAT
wall-clock timings (20 x REPEAT for the millisecond-scale kdist row):

* one Q = 20 Monte Carlo block, ``sample_draw(params, BLOCK, seed)``;
* ``kdist_cdf`` on a 64 x 64 grid (the inner shape of an ipSIC cell);
* ``gauss_laguerre(64)`` as first called in a fresh process;
* a cold ``import ris_secrecy.cli`` in a fresh process.
"""

import json
import statistics
import subprocess
import sys
import time

import run

REPEAT = 7
_FRESH = {
    "gauss_laguerre_64_first_s": (
        "import time; from ris_secrecy.specfun import gauss_laguerre; "
        "t = time.perf_counter(); gauss_laguerre(64); print(time.perf_counter() - t)"),
    "import_cli_cold_s": (
        "import time; t = time.perf_counter(); import ris_secrecy.cli; "
        "print(time.perf_counter() - t)"),
}


def _summary(samples) -> dict:
    return {"median": statistics.median(samples), "min": min(samples), "n": len(samples)}


def _repeat(fn, n) -> list[float]:
    out = []
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return out


def _fresh(code: str, n: int) -> list[float]:
    """Timings printed by `code` run in n fresh interpreters that import from src/."""
    prelude = f"import sys; sys.path.insert(0, {str(run.SRC)!r}); "
    return [
        float(subprocess.run([sys.executable, "-c", prelude + code], cwd=run.ROOT,
                             capture_output=True, text=True, check=True, timeout=120).stdout)
        for _ in range(n)
    ]


def main() -> int:
    _, config, _, _, specfun = run.import_package()
    import numpy as np
    from ris_secrecy import montecarlo

    cfg = config.load_preset("fig2")
    params = config.realize_point(cfg, None, "aris")
    grid = np.outer(np.logspace(-3, 1, 64), np.linspace(0.5, 2.0, 64))
    rows = {
        "mc_block_q20_s": _repeat(lambda: montecarlo.sample_draw(params, montecarlo.BLOCK, 1),
                                  REPEAT),
        "kdist_cdf_64x64_s": _repeat(lambda: specfun.kdist_cdf(20, grid), REPEAT * 20),
    }
    rows.update({name: _fresh(code, REPEAT) for name, code in _FRESH.items()})
    rows["mc_block_q20_us_per_trial"] = [t / montecarlo.BLOCK * 1e6 for t in rows["mc_block_q20_s"]]
    doc = {"machine": run.machine(), "rows": {k: _summary(v) for k, v in rows.items()}}
    print(json.dumps(doc, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
