#!/bin/sh
# Rewrites the goldens that tests/test_golden.py compares against, per shipped
# preset at its own trials and seed: the `sweep --engines a,asy` CSV
# (<preset>.csv), the `sweep --engines m` CSV (montecarlo/<preset>.csv) and the
# `validate --json` report (validate/<preset>.json); and FINGERPRINT.json, the
# numpy build and CPU features the bytes were computed with.  Run it from any
# directory after a change that moves preset outputs on purpose; the diff of
# the files is then the list of moved cells.
set -e
cd "$(dirname "$0")/../.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
mkdir -p tests/golden/montecarlo tests/golden/validate
for preset in $(python -c 'from ris_secrecy.config import list_presets; print(*list_presets())'); do
    python -m ris_secrecy.cli sweep --preset "$preset" --engines a,asy --out "tests/golden/$preset.csv"
    python -m ris_secrecy.cli sweep --preset "$preset" --engines m --out "tests/golden/montecarlo/$preset.csv"
    # validate exits 2 or 3 on a report that checks nothing or fails a check; 1 is an error
    python -m ris_secrecy.cli validate --preset "$preset" --json "tests/golden/validate/$preset.json" \
        > /dev/null || [ $? -ne 1 ]
done
python -c 'import json, sys; sys.path.insert(0, "tests"); from test_golden import fingerprint
print(json.dumps(fingerprint(), indent=1, sort_keys=True))' > tests/golden/FINGERPRINT.json
