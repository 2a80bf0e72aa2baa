#!/bin/sh
# Rewrites the closed-form goldens that tests/test_golden.py compares against:
# one `sweep --engines a,asy` CSV per shipped preset, and FINGERPRINT.json, the
# numpy build and CPU features the bytes were computed with.  Run it from any
# directory after a change that moves closed-form numbers on purpose; the diff
# of the CSVs is then the list of moved cells.
set -e
cd "$(dirname "$0")/../.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
for preset in $(python -c 'from ris_secrecy.config import list_presets; print(*list_presets())'); do
    python -m ris_secrecy.cli sweep --preset "$preset" --engines a,asy --out "tests/golden/$preset.csv"
done
python -c 'import json, sys; sys.path.insert(0, "tests"); from test_golden import fingerprint
print(json.dumps(fingerprint(), indent=1, sort_keys=True))' > tests/golden/FINGERPRINT.json
