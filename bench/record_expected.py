"""Rewrite ``expected_corpus.json``: the outcome of every exact_corpus call
at the default seed, from the library as it is now.

    python3 bench/record_expected.py

Run it only when a verdict or witness change is intended and documented;
the table is what the benchmark gates exact_corpus outputs against.
"""

import json

import run

run._import_dhp()

import corpus  # noqa: E402  (needs the path set by _import_dhp)
from tracer import NULL  # noqa: E402

table = {}
for item in corpus.build(run.DEFAULT_SEED):
    out, _, _, _ = corpus.run_item(item, NULL)
    table[item.key] = out
with open(corpus.EXPECTED_PATH, "w", encoding="utf-8") as fh:
    lines = [f"{json.dumps(key)}: {json.dumps(table[key])}" for key in sorted(table)]
    fh.write("{\n" + ",\n".join(lines) + "\n}\n")
print(f"recorded {len(table)} outcomes to {corpus.EXPECTED_PATH}")
