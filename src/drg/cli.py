"""Command-line interface.

Exit codes: 0 all pass, 1 any failure, 2 any unknown verdict without a
failure, 3 usage or integrity errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .catalog import IntegrityError, catalog_names, resolve_group
from .checks import Budgets, analyze, check_ids, corpus_scan, run_check
from .graph import (
    CertificateError,
    CliqueCertificate,
    CocliqueCertificate,
    validate_clique,
    validate_coclique,
)
from .group import BudgetError
from .numth import (
    bertrand_mid_prime,
    cyclotomic_value,
    greatest_prime_factor,
    mod_dominance_classify,
    phi_star,
    power_vs_factorial,
    primitive_prime_divisors,
    radical,
    sylvester_prime,
)
from .perm import Permutation, PermError
from .semireg import (
    SemiregularBoundCertificate,
    SemiregularWitness,
    WitnessError,
    validate_semiregular,
    validate_semiregular_bound,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 3; --help and --version exit 0
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) <= 0:
        raise argparse.ArgumentTypeError(f"budget must be a positive integer, got {text!r}")
    return int(text)


def _add_budget_flags(p) -> None:
    # the defaults are Budgets' own, so every value given reaches the searches
    b = Budgets()
    p.add_argument("--budget-elems", type=_positive_int, default=b.elements,
                   help="element enumeration budget")
    p.add_argument("--budget-nodes", type=_positive_int, default=b.nodes,
                   help="search node budget, also semiregular extension attempts")


def _budgets_from(args) -> Budgets:
    return Budgets(args.budget_elems, args.budget_nodes)


def cmd_analyze(args) -> int:
    try:
        report = analyze(args.group, _budgets_from(args), deep=args.deep)
    except (IntegrityError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def cmd_density(args) -> int:
    from .graph import density_bounds

    budgets = _budgets_from(args)
    try:
        rep = density_bounds(resolve_group(args.group).group, budgets.nodes, budgets.elements)
    except (IntegrityError, BudgetError, PermError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(rep.to_json_dict(), indent=2, sort_keys=True))
    # an open search leaves rho an interval, an unknown verdict
    closed = rep.status == "ok" and rep.clique_optimal and rep.coclique_optimal
    return 0 if closed else 2


def cmd_verify(args) -> int:
    ids = check_ids() if args.check == "all" else [args.check]
    budgets = Budgets(args.budget_elems, args.budget_nodes, args.budget_degree)
    worst = 0
    for check_id in ids:
        try:
            report = run_check(check_id, budgets)
        except Exception as exc:  # unregistered id, data trouble
            print(f"ERROR   {check_id}: {exc}", file=sys.stderr)
            return 3
        tag = {"pass": "PASS", "fail": "FAIL", "unknown": "UNKNOWN"}[report.verdict]
        print(f"{tag:8s}{check_id}  ({report.wall_time_s:.2f}s)  {report.detail}".rstrip())
        if args.json:
            print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
        if report.verdict == "fail":
            worst = 1
        elif report.verdict == "unknown" and worst == 0:
            worst = 2
    return worst


def cmd_corpus(args) -> int:
    if not Path(args.directory).is_dir():
        print(f"error: not a directory: {args.directory}", file=sys.stderr)
        return 3
    result = corpus_scan(args.directory, _budgets_from(args))
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        cols = ("name", "degree", "order", "transitive", "primitive",
                "derangement_count", "clique_lower_bound", "max_semiregular_order",
                "elusive", "integrity")
        print("\t".join(cols))
        for row in result["rows"]:
            print("\t".join(str(row.get(c, "")) for c in cols))
    return 3 if result["integrity_failures"] else 0


def _print_ppd(r) -> None:
    print(json.dumps({"q": r.q, "t": r.t, "primitive_divisors": list(r.primitive_divisors),
                      "exceptional": r.exceptional}))


def _print_pairs(pairs) -> None:
    for m, ell in pairs:
        print(f"{m}\t{ell}")


# operation -> (function, number of integer arguments, printer); argparse's
# choices are read from it, so an unknown operation never reaches cmd_numth
_NUMTH_OPERATIONS = {
    "radical": (radical, 1, print),
    "gpf": (greatest_prime_factor, 1, print),
    "ppd": (primitive_prime_divisors, 2, _print_ppd),
    "cyclotomic": (cyclotomic_value, 2, print),
    "phi-star": (phi_star, 2, print),
    "sylvester": (sylvester_prime, 2, print),
    "bertrand": (bertrand_mid_prime, 1, print),
    "dominance": (mod_dominance_classify, 1, _print_pairs),
    "power-factorial": (power_vs_factorial, 1, print),
}


def cmd_numth(args) -> int:
    fn, arity, show = _NUMTH_OPERATIONS[args.operation]
    try:
        # a missing argument is an IndexError; extra ones are ignored
        show(fn(*[int(args.args[i]) for i in range(arity)]))
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


def _read_permutation(raw) -> Permutation:
    """A certificate's image list; as in group files, each point is an int, no float or bool."""
    if not isinstance(raw, list) or not all(type(x) is int for x in raw):
        raise TypeError(f"a permutation must be a list of integer points, got {str(raw)[:80]}")
    return Permutation(raw)


def cmd_verify_cert(args) -> int:
    try:
        payload = json.loads(Path(args.file).read_text())
        kind = payload["type"]
        for key in ("degree", "order"):  # a bool is no integer here
            if key in payload and type(payload[key]) is not int:
                raise TypeError(f"{key} must be an integer, got {payload[key]!r}")
        if kind in ("clique", "coclique"):
            vertices = list(map(_read_permutation, payload["vertices"]))
            if kind == "clique":
                require_identity = payload.get("require_identity", True)
                if type(require_identity) is not bool:  # as one_based in group files
                    raise TypeError(
                        f"require_identity must be true or false, got {require_identity!r}")
                validate_clique(CliqueCertificate(vertices), require_identity=require_identity)
            else:
                validate_coclique(CocliqueCertificate(vertices))
            degree = payload.get("degree", vertices[0].degree)
            if degree != vertices[0].degree:
                raise CertificateError(
                    f"degree field {degree!r} disagrees with the vertices' degree "
                    f"{vertices[0].degree}"
                )
        elif kind == "semiregular":
            gens = list(map(_read_permutation, payload["generators"]))
            witness = SemiregularWitness(payload.get("group", ""), gens,
                                         payload["order"], payload.get("method", "catalog"))
            validate_semiregular(witness, payload["degree"])
        elif kind == "semiregular-bound":
            exclusions = []
            for e in payload["exclusions"]:
                d, p = e["excluded_order"], e["prime"]
                if type(d) is not int or type(p) is not int:
                    raise TypeError(f"excluded order and prime must be integers, got {d!r}, {p!r}")
                exclusions.append((d, p, _read_permutation(e["element"])))
            cert = SemiregularBoundCertificate(
                payload.get("group", ""), list(map(_read_permutation, payload["generators"])),
                payload["order"], exclusions)
            validate_semiregular_bound(cert, payload["degree"])
        else:
            print(f"unknown certificate type {kind!r}", file=sys.stderr)
            return 3
    except (KeyError, TypeError, PermError, json.JSONDecodeError, OSError) as exc:
        # not a certificate: a JSON array, a vertex or generator that is no
        # permutation
        print(f"error: bad certificate file: {exc}", file=sys.stderr)
        return 3
    except (CertificateError, WitnessError) as exc:
        print(f"INVALID: {exc}")
        return 1
    print("VALID")
    return 0


def cmd_catalog(args) -> int:
    for name in catalog_names():
        print(name)
    return 0


def main(argv=None) -> int:
    parser = _Parser(
        prog="drg",
        description="Derangement graphs of transitive permutation groups: "
                    "cliques, intersection density, semiregular subgroups.",
    )
    parser.add_argument("--version", action="version", version=f"drg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report for a group file or catalog name")
    p.add_argument("group")
    p.add_argument("--deep", action="store_true",
                   help="run the exact density searches above order 5000 too")
    _add_budget_flags(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("density", help="intersection density bounds")
    p.add_argument("group")
    _add_budget_flags(p)
    p.set_defaults(fn=cmd_density)

    p = sub.add_parser("verify", help="run a named check (or: all)")
    p.add_argument("check")
    p.add_argument("--json", action="store_true", help="print full reports")
    _add_budget_flags(p)
    # only the checks behind verify build coset actions and product domains
    p.add_argument("--budget-degree", type=_positive_int, default=Budgets.degree,
                   help="coset action and product domain degree budget")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("corpus", help="scan a directory of group files")
    p.add_argument("directory")
    p.add_argument("--json", action="store_true")
    _add_budget_flags(p)
    p.set_defaults(fn=cmd_corpus)

    p = sub.add_parser("numth", help="number theory operations")
    p.add_argument("operation", choices=list(_NUMTH_OPERATIONS))
    p.add_argument("args", nargs="*")
    p.set_defaults(fn=cmd_numth)

    p = sub.add_parser("verify-cert", help="re-validate a serialized certificate")
    p.add_argument("file")
    p.set_defaults(fn=cmd_verify_cert)

    p = sub.add_parser("catalog", help="list shipped catalog groups")
    p.set_defaults(fn=cmd_catalog)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
