"""The benchmark's workloads: their queries, reference answers and digests.

Each workload is a fixed list of queries against drg's public functions. The
seed only permutes the order in which a pass runs them. Answers are checked
against ``reference.json``, the outputs of the commit that added the benchmark:

* invariants and every value the reference proves closed must match exactly;
* values the reference leaves open are bounds: a clique or semiregular value may
  only rise, a semiregular order must divide the degree, and a density
  interval must lie within the reference's proven interval;
* every clique, coclique and semiregular certificate a query returns is
  re-validated with drg's independent checkers.

A query's digest hashes its full output with timing fields dropped, so that
runs of the same code under any seed can be compared byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

WORKLOADS = ("analyze-catalog", "density-exact", "verify-all")

# ``oracle-equivalence`` at full size runs the exhaustive oracles for over a
# minute, which one run of the benchmark cannot afford; the query runs the
# same check on the catalog groups up to this order. That set still reaches
# every oracle (closure, clique, coclique and semiregular).
ORACLE_MAX_ORDER = 360

# keys that carry timings or traces, never part of an answer or a digest
_TIMING_KEYS = {"wall_time_s", "trace"}
# certificate payloads and their provenance: re-validated, not compared with
# the reference, since a faster search may find another valid certificate
_CERTIFICATE_KEYS = {"vertices", "generators", "method"}


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def catalog_groups(workload: str, reference: dict) -> list[str]:
    """Catalog groups a workload loads during set-up."""
    if workload == "density-exact":
        return sorted(reference["density-exact"])
    return sorted(reference["analyze-catalog"])


def _strip(obj, keys: set[str]):
    if isinstance(obj, dict):
        return {k: _strip(v, keys) for k, v in obj.items() if k not in keys}
    if isinstance(obj, list):
        return [_strip(v, keys) for v in obj]
    return obj


def digest(obj) -> str:
    text = json.dumps(_strip(obj, _TIMING_KEYS), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# -- running queries -----------------------------------------------------------


def run_query(workload: str, query: str):
    """Run one query and return its raw result."""
    from drg import checks
    from drg.catalog import catalog_load
    from drg.graph import density_bounds

    if workload == "analyze-catalog":
        return checks.analyze(query)
    if workload == "density-exact":
        return density_bounds(catalog_load(query).group)
    if query != "oracle-equivalence":
        return checks.run_check(query)
    full_index = checks.catalog_index
    checks.catalog_index = lambda: [rec for rec in full_index()
                                    if rec["order"] <= ORACLE_MAX_ORDER]
    try:
        return checks.run_check(query)
    finally:
        checks.catalog_index = full_index


def output_of(workload: str, result) -> dict:
    """The JSON output of a query, as a user of the CLI would see it."""
    if workload == "analyze-catalog":
        out = result
    elif workload == "density-exact":
        out = result.to_json_dict()
        out["clique_certificate"] = result.clique_certificate.to_json_dict()
        out["coclique_certificate"] = result.coclique_certificate.to_json_dict()
    else:
        out = result.to_json_dict(include_timing=False)
    return json.loads(json.dumps(out))


def searches(workload: str, output: dict) -> tuple[int, int]:
    """(attempted, decided) searches in one query's output.

    analyze: the semiregular and the density search of each group; density:
    clique and coclique optimality; verify: the check's verdict. A capped,
    partial or unknown result is undecided.
    """
    if workload == "analyze-catalog":
        density = output.get("density", {})
        closed_density = (density.get("status") == "ok" and bool(density.get("clique_optimal"))
                          and bool(density.get("coclique_optimal")))
        return 2, bool(output.get("max_semiregular_closed")) + closed_density
    if workload == "density-exact":
        return 2, bool(output["clique_optimal"]) + bool(output["coclique_optimal"])
    return 1, int(output["verdict"] == "pass")


# -- reference answers -----------------------------------------------------------


class AnswerError(AssertionError):
    pass


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise AnswerError(message)


def _frac(text):
    return Fraction(text) if text is not None else None


def check_density(new: dict, ref: dict) -> None:
    """Closed values exact, the interval within the reference's proven interval."""
    _expect(new.get("status") in ("ok", "partial"), f"density status {new.get('status')!r}")
    for key, flag in (("best_clique", "clique_optimal"), ("best_coclique", "coclique_optimal")):
        if ref.get(flag):
            _expect(bool(new.get(flag)), f"{flag} no longer closed")
            _expect(new.get(key) == ref[key], f"{key} {new.get(key)} != {ref[key]}")
    if ref.get("best_clique") is not None:
        _expect((new.get("best_clique") or 0) >= ref["best_clique"], "best_clique fell")
    if ref.get("best_coclique") is not None:
        _expect((new.get("best_coclique") or 0) >= ref["best_coclique"], "best_coclique fell")
    lower, upper = _frac(new.get("rho_lower")), _frac(new.get("rho_upper"))
    _expect(lower is not None and upper is not None, "density interval missing")
    _expect(lower <= upper, f"empty density interval [{lower}, {upper}]")
    _expect(lower >= _frac(ref["rho_lower"]) and upper <= _frac(ref["rho_upper"]),
            f"interval [{lower}, {upper}] leaves [{ref['rho_lower']}, {ref['rho_upper']}]")


_ANALYZE_EXACT = ("name", "degree", "order", "transitive", "primitive", "block_systems",
                  "stabilizer_order", "derangement_count", "elusive", "elusive_witness_order")


def check_analyze(new: dict, ref: dict) -> None:
    for key in _ANALYZE_EXACT:
        _expect(new.get(key) == ref.get(key), f"{key}: {new.get(key)!r} != {ref.get(key)!r}")
    degree = ref["degree"]
    clique = new.get("clique_lower_bound")
    _expect(clique is not None and ref["clique_lower_bound"] <= clique <= degree,
            f"clique lower bound {clique} outside [{ref['clique_lower_bound']}, {degree}]")
    semi = new.get("max_semiregular_order")
    _expect(isinstance(semi, int) and degree % semi == 0,
            f"semiregular order {semi} does not divide {degree}")
    if ref["max_semiregular_closed"]:
        _expect(new.get("max_semiregular_closed") is True, "semiregular search no longer closes")
        _expect(semi == ref["max_semiregular_order"],
                f"closed semiregular maximum {semi} != {ref['max_semiregular_order']}")
    else:
        _expect(semi >= ref["max_semiregular_order"],
                f"semiregular order {semi} < {ref['max_semiregular_order']}")
    check_density(new.get("density", {}), ref["density"])


def check_verify(new: dict, ref: dict) -> None:
    for key in ("verdict", "inputs", "detail"):
        _expect(new.get(key) == ref[key], f"{key}: {new.get(key)!r} != {ref[key]!r}")
    answer = _strip(new.get("certificate"), _CERTIFICATE_KEYS)
    _expect(answer == ref["answer"], "certificate answers differ from the reference")


def reference_entry(workload: str, output: dict) -> dict:
    """What reference.json records for one query's output."""
    if workload == "verify-all":
        return {"verdict": output["verdict"], "inputs": output["inputs"],
                "detail": output["detail"],
                "answer": _strip(output["certificate"], _CERTIFICATE_KEYS)}
    return _strip(output, _CERTIFICATE_KEYS | {"clique_certificate", "coclique_certificate"})


def check_answer(workload: str, output: dict, ref: dict) -> None:
    {"analyze-catalog": check_analyze, "density-exact": check_density,
     "verify-all": check_verify}[workload](output, ref)


# -- certificate re-validation -----------------------------------------------------


def revalidate(workload: str, query: str, result) -> int:
    """Re-validate every certificate in a query's result; returns how many."""
    from drg.catalog import catalog_load
    from drg.graph import clique_coclique_audit

    if workload == "analyze-catalog":
        return 0  # the analyze report carries numbers, not certificates
    if workload == "density-exact":
        G = catalog_load(query).group
        clique, coclique = result.clique_certificate, result.coclique_certificate
        clique_coclique_audit(clique, coclique, G)
        _expect(clique.size == result.best_clique and coclique.size == result.best_coclique,
                "certificate sizes differ from the report")
        _expect(result.rho_lower == Fraction(coclique.size, result.stabilizer_order)
                and result.rho_upper == Fraction(G.degree, clique.size),
                "density bounds do not follow from the certificates")
        return 2
    return _revalidate_json(result.to_json_dict(include_timing=False)["certificate"], None)


def _revalidate_json(obj, group_name: str | None) -> int:
    from drg.catalog import catalog_load, catalog_names
    from drg.graph import (CliqueCertificate, CocliqueCertificate, validate_clique,
                           validate_coclique)
    from drg.perm import Permutation
    from drg.semireg import SemiregularWitness, validate_semiregular

    if isinstance(obj, list):
        return sum(_revalidate_json(v, group_name) for v in obj)
    if not isinstance(obj, dict):
        return 0
    kind = obj.get("type")
    group = catalog_load(group_name).group if group_name else None
    if kind == "clique":
        validate_clique(CliqueCertificate([Permutation(v) for v in obj["vertices"]]), group)
        return 1
    if kind == "coclique":
        validate_coclique(CocliqueCertificate([Permutation(v) for v in obj["vertices"]]), group)
        return 1
    if kind == "semiregular":
        witness = SemiregularWitness(obj["group"], [Permutation(g) for g in obj["generators"]],
                                     obj["order"], obj["method"])
        validate_semiregular(witness, obj["degree"])
        return 1
    names = set(catalog_names())
    return sum(_revalidate_json(v, k if k in names else None) for k, v in obj.items())
