"""Record the reference outputs the correctness gate compares against.

    python3 perfbench/record_refs.py

Runs one pass of every workload at workers=1 for each seed in SEEDS and
writes perfbench/refs/<workload>.json.  Re-record only
when a change to the package is meant to change its outputs, and say so in
CHANGES.md; an exact-in-law sampler rewrite needs no re-recording.
"""

import json
import sys

import check
import gen
import run

SEEDS = range(11)


def main() -> int:
    cli, config, *_ = run.import_package()
    check.REFS.mkdir(exist_ok=True)
    for workload in run.WORKLOADS:
        refs = {}
        for seed in SEEDS:
            cfgs = [config.parse_config(d) for d in gen.GENERATORS[workload](seed)]
            outputs = run.run_pass(workload, run.entry_point(workload, cli), cfgs, 1)
            if check.invariant_failures(workload, outputs):
                raise SystemExit(f"{workload} seed {seed}: outputs fail the invariants")
            refs[str(seed)] = check.make_record(workload, outputs)
        # one compact line per seed keeps the file diffable
        lines = [f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}" for k, v in refs.items()]
        (check.REFS / f"{workload}.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
