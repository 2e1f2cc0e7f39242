"""Write reference.json from the outputs of the code in this checkout.

The committed reference.json was written by this script at the commit that
introduced the benchmark, and the benchmark compares every later commit with
it. Run it again only to add a workload or a query, never to make a run pass:

    python3 bench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from drg.catalog import catalog_names  # noqa: E402
from drg.checks import check_ids  # noqa: E402

QUERIES = {
    "analyze-catalog": catalog_names(),
    # closed density searches where adjacency rows are nearly all the work
    "density-exact": ["A7:7", "PSL2(11):12", "S6:6"],
    "verify-all": check_ids(),
}


def main() -> None:
    reference = {}
    for workload, queries in QUERIES.items():
        reference[workload] = {}
        for query in queries:
            output = workloads.output_of(workload, workloads.run_query(workload, query))
            reference[workload][query] = workloads.reference_entry(workload, output)
            print(workload, query, file=sys.stderr)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
