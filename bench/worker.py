"""One pass of one workload in a fresh interpreter; prints one JSON line.

``run.py`` starts this file once per pass. A fresh interpreter is the point:
``catalog_load`` is cached and each ``PermGroup`` caches its chain, so a second
pass in one process would skip the set-up that every ``drg`` command pays.

Set-up is timed from the moment the parent started this process
(``--started``, a ``time.monotonic`` reading) through importing drg and
loading the workload's catalog groups. The pass runs the queries in the
order the seed gives; answers, certificates and digests are checked after
the timed part, with tracing removed.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--groups", required=True, help="catalog groups to load in set-up")
    parser.add_argument("--order", required=True, help="queries, comma separated, in pass order")
    parser.add_argument("--started", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = Path(args.root) / "src"
    sys.path.insert(0, str(src))
    import drg.cli  # noqa: F401  -- everything a drg command imports

    if not Path(drg.cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"drg imported from {drg.cli.__file__}, not from {src}")

    tracer = None
    if args.trace:
        import drg.oracles  # noqa: F401  -- imported lazily by one check; wrap it too
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()

    for name in args.groups.split(","):
        drg.catalog.catalog_load(name)  # looked up now, so that a traced run sees the span
    setup_s = time.monotonic() - args.started
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import workloads

    reference = workloads.load_reference()
    queries = args.order.split(",")
    results = {}
    seconds = {}
    errors = {}
    start = time.perf_counter()
    for query in queries:
        t = time.perf_counter()
        try:
            results[query] = workloads.run_query(args.workload, query)
        except Exception as exc:  # a query that raises is counted, not fatal
            errors[query] = f"raised {type(exc).__name__}: {exc}"
        seconds[query] = time.perf_counter() - t
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    out = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
           "query_s": seconds}
    if tracer is not None:
        out["unwrapped_sites"] = tracer.unwrapped_sites()
        tracer.uninstall()
        out["layers"] = {name: value for name, (value, _) in layer_metrics(tracer).items()}
        out["span_calls"] = dict(tracer.calls)
        out["wrap_missing"] = tracer.missing

    digests = {}
    attempted = decided = certificates = 0
    for query, result in results.items():
        try:
            output = workloads.output_of(args.workload, result)
            digests[query] = workloads.digest(output)
            a, d = workloads.searches(args.workload, output)
            attempted += a
            decided += d
            workloads.check_answer(args.workload, output, reference[args.workload][query])
            certificates += workloads.revalidate(args.workload, query, result)
        except Exception as exc:  # wrong answer, failed re-validation or bad output
            errors[query] = f"{type(exc).__name__}: {exc}"
    out.update(digests=digests, errors=errors, searches_attempted=attempted,
               searches_decided=decided, certificates_revalidated=certificates)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
