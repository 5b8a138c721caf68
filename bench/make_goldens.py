"""Write the catalog_chains goldens: exit code, byte count and SHA-256 of the
``--json`` stdout of every query in the pool, keyed by argv.

    python3 bench/make_goldens.py

The committed goldens were generated from the rootforge version that
introduced the benchmark.  Regenerate them only for an intended change of
output; a speed-up must leave every digest unchanged.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import rootforge.cli  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    rf = SimpleNamespace(cli=rootforge.cli)
    workload = workloads.CatalogChains()
    goldens = {}
    for argv in workloads.catalog_pool():
        code, stdout, stderr = workload.run(rf, argv)
        if code != 0:
            sys.stderr.write(f"{' '.join(argv)} exited with {code}: {stderr}")
            return 1
        goldens[workloads.argv_key(argv)] = workloads.digest(code, stdout)
    with open(workloads.GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(goldens)} goldens to {workloads.GOLDENS}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
