"""Set-up time of one fresh process: import the package from this checkout and
make the first call of each entry point a workload uses, on a tiny input.

    python3 perfbench/setup_probe.py <workload>

Prints {"setup_s": ...}; the clock starts before any import below, so the
import of numpy, scipy and the package and the quadrature-table build count.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import run  # noqa: E402


def main() -> int:
    workload = sys.argv[1]
    cli, config, *_ = run.import_package()
    run.warm_up(workload, cli, config)
    print(json.dumps({"wall_s": time.perf_counter() - T0, "cpu_s": run.cpu_seconds()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
