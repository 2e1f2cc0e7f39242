"""Benchmark of drg: end-to-end metrics, or per-layer metrics from a traced run.

Run from the root of a drg checkout:

    python3 bench/run.py --workload analyze-catalog --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --self-test

Every pass of a workload runs in a fresh interpreter (``worker.py``), one
after another, on one thread. Untraced, passes start until ``--seconds``
have gone by (at least one); the metrics are medians over passes, and
set-up is sampled at least ``SETUP_SAMPLES`` times. Traced, one untraced and
one traced pass run, and the per-layer metrics come from the traced one.

Lines before the last describe the environment and every sample; the last
line is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170
STATE_DIR = ".bench_state"
# written by Python or the benchmark itself, not part of the work tree
_UNTRACKED = {".git", STATE_DIR, "__pycache__", ".pytest_cache", ".bench_build"}

# spans each workload must open (self-test), and spans it must never open
EXPECTED_SPANS = {
    "analyze-catalog": ["catalog.load", "group.chain", "group.blocks", "checks.analyze",
                        "semireg.is_elusive", "semireg.max_semiregular",
                        "checks.quick_k_clique", "graph.find_k_clique",
                        "graph.derangement_set", "group.element_images", "graph.max_clique",
                        "graph.max_intersecting_family", "graph.density_bounds",
                        "graph.validate", "numth.factorize"],
    "density-exact": ["catalog.load", "group.chain", "group.blocks", "graph.derangement_set",
                      "group.element_images", "graph.max_clique",
                      "graph.max_intersecting_family", "graph.density_bounds",
                      "graph.validate"],
    "verify-all": ["catalog.load", "group.chain", "group.blocks", "checks.quick_k_clique",
                   "graph.max_clique", "graph.max_intersecting_family",
                   "graph.validate", "semireg.is_elusive", "semireg.max_semiregular",
                   "semireg.validate", "group.close_subgroup", "group.coset_action",
                   "constructions", "numth.factorize", "numth.ppd", "oracles.closure_order",
                   "oracles.max_clique", "oracles.max_coclique", "oracles.max_semiregular"],
}
FORBIDDEN_SPANS = {
    "analyze-catalog": ["oracles."],
    "density-exact": ["oracles.", "numth.", "semireg.", "checks."],
    "verify-all": [],
}


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg_start": list(os.getloadavg()),
    }


def tree_digests(root: Path) -> dict[str, str]:
    """Hash of every file in the checkout outside the untracked directories."""
    out = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in _UNTRACKED]
        for name in filenames:
            path = Path(dirpath, name)
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def changed_files(before: dict[str, str], after: dict[str, str]) -> list[str]:
    return sorted(p for p in before.keys() | after.keys() if before.get(p) != after.get(p))


class Runner:
    def __init__(self, root: Path, workload: str):
        self.root = root
        self.workload = workload
        self.reference = workloads.load_reference()
        self.groups = ",".join(workloads.catalog_groups(workload, self.reference))
        self.env = dict(os.environ)
        self.env.pop("DRG_DATA_DIR", None)  # always the shipped catalog
        # cache bytecode, as an installed drg has it, but outside src/ so
        # that the work tree stays as checked out
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPYCACHEPREFIX"] = str(root / STATE_DIR / "pycache")

    def worker(self, order: list[str], trace: bool = False, setup_only: bool = False) -> dict:
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--root", str(self.root),
               "--workload", self.workload, "--groups", self.groups,
               "--order", ",".join(order), "--trace", str(int(trace))]
        if setup_only:
            cmd.append("--setup-only")
        started = time.monotonic()
        proc = subprocess.run(cmd + ["--started", repr(started)], cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr[-4000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


class DigestStore:
    """Digests of every query, per version of src/ and of the benchmark.

    Runs of the same code under any seed must reproduce every digest.
    """

    def __init__(self, root: Path, workload: str):
        files = sorted(tree_digests(root / "src").items()) + sorted(tree_digests(BENCH_DIR).items())
        version = hashlib.sha256(json.dumps(files).encode()).hexdigest()[:20]
        self.path = root / STATE_DIR / f"digests-{version}.json"
        self.workload = workload
        try:
            self.data = json.loads(self.path.read_text())
        except (OSError, json.JSONDecodeError):
            self.data = {}

    def mismatches(self, digests: dict[str, str]) -> dict[str, str]:
        known = self.data.setdefault(self.workload, {})
        bad = {}
        for query, value in digests.items():
            if known.setdefault(query, value) != value:
                bad[query] = "digest differs from an earlier run of the same code"
        return bad

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def run(args, root: Path, env: dict) -> dict:
    runner = Runner(root, args.workload)
    queries = sorted(runner.reference[args.workload])
    random.Random(args.seed).shuffle(queries)
    store = DigestStore(root, args.workload)
    before = tree_digests(root)

    passes, setups = [], []
    traced = None
    started = time.monotonic()
    if args.trace:
        passes.append(runner.worker(queries))
        traced = runner.worker(queries, trace=True)
    else:
        while not passes or time.monotonic() - started < args.seconds:
            passes.append(runner.worker(queries))
        setups = [p["setup_s"] for p in passes]
        while len(setups) < SETUP_SAMPLES:
            setups.append(runner.worker(queries, setup_only=True)["setup_s"])

    errors: dict[str, str] = {}
    attempted = failed = searches = decided = 0
    for p in passes + ([traced] if traced else []):
        bad = dict(p["errors"])
        for query, why in store.mismatches(p["digests"]).items():
            bad.setdefault(query, why)
        errors.update(bad)
        attempted += len(queries)
        failed += len(bad)
        searches += p["searches_attempted"]
        decided += p["searches_decided"]
    store.save()
    changed = changed_files(before, tree_digests(root))
    if changed:
        errors["work tree"] = f"files in the checkout changed during the run: {changed}"
        failed += 1

    walls = [p["wall_s"] for p in passes]
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": env, "passes": len(passes),
        "wall_s": summary(walls),
        "setup_s": summary(setups) if setups else None,
        "peak_rss_mb": summary([p["peak_rss_mb"] for p in passes]),
        "error_share": failed / attempted, "errors": errors,
        "certificates_revalidated": sum(p["certificates_revalidated"] for p in passes),
    }
    if args.trace:
        metrics = trace_metrics(runner.reference, traced, statistics.median(walls))
        for key in ("span_calls", "wrap_missing", "unwrapped_sites"):
            detail[key] = traced[key]
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
            "decided_share": (decided / searches, "ratio"),
            "correct_share": (1 - failed / attempted, "ratio"),
        }
    print(json.dumps({"detail": detail}, sort_keys=True))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def trace_metrics(reference: dict, traced: dict, untraced_wall: float) -> dict:
    units = {name: unit for name, (_, unit) in tracing.layer_metrics(tracing.Tracer()).items()}
    metrics = {name: (value, units[name]) for name, value in traced["layers"].items()}
    for check_id in sorted(reference["verify-all"]):
        metrics[f"check.{check_id}_s"] = (traced["query_s"].get(check_id, 0.0), "s")
    metrics["trace.overhead_share"] = ((traced["wall_s"] - untraced_wall) / untraced_wall,
                                       "ratio")
    return metrics


def self_test(root: Path) -> int:
    """One traced pass per workload: span coverage, import sites, answers, work tree."""
    before = tree_digests(root)
    problems = []
    for workload in workloads.WORKLOADS:
        runner = Runner(root, workload)
        out = runner.worker(sorted(runner.reference[workload]), trace=True)
        fired = {name for name, n in out["span_calls"].items() if n}
        for name in EXPECTED_SPANS[workload]:
            if name not in fired:
                problems.append(f"{workload}: span {name} never opened")
        for prefix in FORBIDDEN_SPANS[workload]:
            problems += [f"{workload}: span {name} opened" for name in sorted(fired)
                         if name.startswith(prefix)]
        if out["layers"]["group.enumerations"] == 0 and workload == "analyze-catalog":
            problems.append(f"{workload}: PermGroup.elements never counted")
        problems += [f"{workload}: {site} not wrapped" for site in out["unwrapped_sites"]]
        problems += [f"{workload}: {name} missing" for name in out["wrap_missing"]]
        problems += [f"{workload}: {q}: {why}" for q, why in out["errors"].items()]
        print(f"{workload}: {len(fired)} spans opened, wall {out['wall_s']:.1f} s", flush=True)
    changed = changed_files(before, tree_digests(root))
    if changed:
        problems.append(f"files in the checkout changed during the self-test: {changed}")
    for line in problems:
        print("FAIL", line)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    # a terminated run stops its worker too: subprocess.run kills it on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "drg" / "__init__.py").is_file():
        print("error: run from the root of a drg checkout (no src/drg here)", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test(root)
    if args.workload is None:
        parser.error("--workload is required")
    env = environment()
    result = run(args, root, env)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
