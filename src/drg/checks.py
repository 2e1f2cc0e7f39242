"""Named end-to-end checks, the analyze report, and corpus scanning.

Every check id maps to a self-contained claim statement and a runner; a
``pass`` verdict always carries a certificate that re-validates through the
independent checkers, and a budget-capped run reports ``unknown`` rather
than a negative result.
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import islice
from pathlib import Path

from . import __version__
from .catalog import GroupFile, IntegrityError, catalog_index, catalog_load, resolve_group
from .constructions import (
    WreathSpec,
    cyclic_group,
    matrix_has_eigenvalue_in_base,
    ppd_block_witness,
    product_clique,
    rank_one_unipotent_family,
    singer_minus,
    split_symplectic_form,
    symplectic_unipotent_family,
    wreath_expected_order,
    wreath_product_action,
)
from .fields import GF, Matrix, preserves_quadratic, preserves_symplectic
from .graph import (
    CliqueCertificate,
    CocliqueCertificate,
    DensityReport,
    clique_coclique_audit,
    density_bounds,
    find_k_clique,
    greedy_clique,
    max_clique,
    max_intersecting_family,
    validate_clique,
)
from .group import (DEFAULT_DEGREE_BUDGET, DEFAULT_ELEMENT_BUDGET, DEFAULT_NODE_BUDGET,
                    BudgetError, PermGroup, blocks_and_primitivity, coset_action)
from .numth import (
    cyclotomic_value,
    divisors,
    greatest_prime_factor,
    mod_dominance_classify,
    phi_star,
    primitive_prime_divisors,
    radical,
    zsigmondy_exception_expected,
)
from .perm import Permutation, is_derangement
from .semireg import (
    SemiregularWitness,
    WitnessError,
    element_census,
    is_elusive,
    max_semiregular_order,
    product_action_fpf,
    product_action_perm,
    validate_semiregular,
    wreath_elusive_check,
)


REPORT_SCHEMA_VERSION = 1


@dataclass
class Budgets:
    elements: int = DEFAULT_ELEMENT_BUDGET
    nodes: int = DEFAULT_NODE_BUDGET
    degree: int = DEFAULT_DEGREE_BUDGET

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass
class CheckReport:
    check_id: str
    claim: str
    inputs: dict
    verdict: str  # pass | fail | unknown
    certificate: dict | None
    wall_time_s: float
    tool_version: str = __version__
    budgets: dict | None = None
    detail: str = ""

    def to_json_dict(self, include_timing: bool = True) -> dict:
        out = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "check_id": self.check_id,
            "claim": self.claim,
            "inputs": self.inputs,
            "verdict": self.verdict,
            "certificate": self.certificate,
            "tool_version": self.tool_version,
            "budgets": self.budgets,
            "detail": self.detail,
        }
        if include_timing:
            out["wall_time_s"] = round(self.wall_time_s, 3)
        return out


class CheckError(ValueError):
    pass


_REGISTRY: dict[str, tuple[str, callable]] = {}


def register(check_id: str, claim: str):
    def wrap(fn):
        _REGISTRY[check_id] = (claim, fn)
        return fn

    return wrap


def check_ids() -> list[str]:
    return sorted(_REGISTRY)


def run_check(check_id: str, budgets: Budgets | None = None) -> CheckReport:
    if check_id not in _REGISTRY:
        raise CheckError(f"unregistered check id {check_id!r}; known: {check_ids()}")
    budgets = budgets or Budgets()
    claim, fn = _REGISTRY[check_id]
    start = time.perf_counter()
    try:
        verdict, inputs, certificate, detail = fn(budgets)
    except BudgetError as exc:
        return CheckReport(check_id, claim, {}, "unknown", None, time.perf_counter() - start,
                           budgets=budgets.to_json_dict(), detail=str(exc))
    report = CheckReport(check_id, claim, inputs, verdict, certificate,
                         time.perf_counter() - start, detail=detail)
    if verdict == "unknown":
        report.budgets = budgets.to_json_dict()
    return report


# -- helpers ------------------------------------------------------------------


# how many streamed derangements, or random samples, the greedy layers try
_GREEDY_PREFIX = 400


def _greedy_extend(prefix: Iterable[Permutation], k: int,
                   degree: int) -> CliqueCertificate | None:
    """A validated k-clique through the identity, ``greedy_clique`` over the
    derangements in ``prefix`` taken in order, or None."""
    chosen = greedy_clique((p.images for p in prefix), k - 1)
    if len(chosen) < k - 1:
        return None
    cert = CliqueCertificate([Permutation.identity(degree)] + list(map(Permutation, chosen)))
    validate_clique(cert)
    return cert


def sampled_k_clique(G: PermGroup, k: int) -> CliqueCertificate | None:
    """Randomized (fixed-seed) clique lower bound for groups too big to enumerate:
    the greedy over the distinct derangements among a fixed number of samples."""
    import random

    rng = random.Random(0xD06 + G.degree)
    samples = (G.random_element(rng) for _ in range(_GREEDY_PREFIX))
    return _greedy_extend(sorted(set(filter(is_derangement, samples))), k, G.degree)


def quick_k_clique(G: PermGroup, k: int, budgets: Budgets):
    """Greedy over a prefix of the streamed derangements first, which is sound
    (validated) but incomplete, then the exact identity-rooted search."""
    prefix = islice(filter(is_derangement, G.elements(budgets.elements)), _GREEDY_PREFIX)
    cert = _greedy_extend(prefix, k, G.degree)
    if cert is not None:
        return "found", cert
    result = find_k_clique(G, k, budgets.nodes, budgets.elements)
    return result.status, result.certificate


_AUDIT_COCLIQUE_CAP = 720


def _stabilizer_coclique(G: PermGroup) -> CocliqueCertificate:
    """An intersecting family from the stabilizer of G's first base point,
    the least point G moves, capped for audit size: min(|G|/n, cap)
    members, since every point stabilizer of a transitive group has order
    |G|/n.

    Any two members agree at the base point. They are streamed lazily off
    the levels of G's chain below the base, as products of transversal
    elements, so they are wrapped unchecked; a prefix of a coclique is still
    a coclique. The caller validates it once, with membership, in
    ``clique_coclique_audit``.
    """
    walk = G.level_transversals(1, G.order())[1]
    return CocliqueCertificate(list(map(Permutation._trusted,
                                        islice(walk, _AUDIT_COCLIQUE_CAP))))


# -- the named checks -----------------------------------------------------------


@register("m11-deg12-elusive",
          "M11 acting on 12 points has no fixed-point-free element of prime order")
def _check_m11_elusive(budgets: Budgets):
    G = catalog_load("M11:12").group
    rep = is_elusive(G, budgets.elements)
    if rep.elusive is None:
        return "unknown", {"group": "M11:12"}, None, rep.note
    verdict = "pass" if rep.elusive else "fail"
    return verdict, {"group": "M11:12", "order": G.order()}, rep.to_json_dict(), ""


@register("exceptional-4cliques",
          "the derangement graphs of A5:6, A6:6, PSU3(3):36 and M11:12 contain 4-cliques")
def _check_exceptional_4cliques(budgets: Budgets):
    certs = {}
    for name in ("A5:6", "A6:6", "PSU3(3):36", "M11:12"):
        G = catalog_load(name).group
        status, cert = quick_k_clique(G, 4, budgets)
        if status == "unknown":
            return "unknown", {"group": name}, None, "search budget exhausted"
        if status != "found":
            return "fail", {"group": name}, None, "no 4-clique found"
        validate_clique(cert, G)
        certs[name] = cert.to_json_dict()
    return "pass", {"groups": sorted(certs)}, certs, ""


@register("m11-coset-semireg-orders",
          "M11 on the cosets of 11:5 / 6:2 / each A5 class has semiregular subgroups "
          "of order exactly 144 / 55 / 11 / 11")
def _check_m11_coset_orders(budgets: Budgets):
    m11 = catalog_load("M11:11")
    expected = {"11:5": ("M9:2", 144), "6:2": ("11:5", 55),
                "A5a": (None, 11), "A5b": (None, 11)}
    witnesses = {}
    for sub_name, (seed_name, want) in expected.items():
        action = coset_action(m11.group, m11.subgroups[sub_name],
                              degree_budget=budgets.degree,
                              element_budget=budgets.elements,
                              name=f"M11 on cosets of {sub_name}")
        if seed_name is None:
            # an order-11 element from the 11:5 subgroup is coprime to |A5|
            elems = PermGroup(m11.subgroups["11:5"], 11).element_images(budgets.elements)
            seed = [next(p for p in map(Permutation, elems) if p.order() == 11)]
        else:
            seed = m11.subgroups[seed_name]
        image_gens = [action.act(g) for g in seed]
        witness = SemiregularWitness(f"M11 cosets of {sub_name}", image_gens,
                                     PermGroup(image_gens, action.degree).order(), "order-coprime")
        validate_semiregular(witness, action.degree)
        if witness.order != want:
            return ("fail", {"action": sub_name},
                    witness.to_json_dict(), f"order {witness.order} != {want}")
        witnesses[sub_name] = witness.to_json_dict()
    return "pass", {"degrees": {"11:5": 144, "6:2": 660, "A5a": 132, "A5b": 132}}, witnesses, ""


@register("thm13-exceptional-maxima",
          "A5:6, A6:6 and PSU3(3):36 have no semiregular subgroup of order 4 or more, "
          "and M11:12 has none of order 2 or more (closed searches)")
def _check_thm13_maxima(budgets: Budgets):
    expectations = {"A5:6": 3, "A6:6": 3, "PSU3(3):36": 3, "M11:12": 1}
    results = {}
    for name, bound in expectations.items():
        G = catalog_load(name).group
        r = max_semiregular_order(G, budgets.elements, budgets.nodes)
        if not r.optimal:
            return "unknown", {"group": name}, None, "search did not close"
        validate_semiregular(r.witness, G.degree)
        if name == "M11:12":
            ok = r.witness.order == 1
        else:
            ok = r.witness.order <= bound
        if not ok:
            return ("fail", {"group": name}, r.witness.to_json_dict(),
                    f"maximum {r.witness.order} exceeds {bound}")
        results[name] = {"max_order": r.witness.order, "witness": r.witness.to_json_dict(),
                         "closed": r.optimal}
    return "pass", {"groups": sorted(expectations)}, results, ""


@register("alt5-2subsets-density",
          "for A5 on the ten 2-subsets the point stabilizer has order 6 and an "
          "intersecting family of size 12 exists, so the intersection density is >= 2")
def _check_alt5_density(budgets: Budgets):
    G = catalog_load("A5:10").group
    rep = density_bounds(G, budgets.nodes, budgets.elements)
    if rep.status != "ok":
        return "unknown", {"group": "A5:10"}, None, "budget exhausted"
    ok = (rep.stabilizer_order == 6 and rep.best_coclique >= 12
          and rep.rho_lower >= 2)
    verdict = "pass" if ok else "fail"
    return verdict, {"group": "A5:10"}, rep.to_json_dict(), ""


@register("corpus-jordan-triangle",
          "every transitive catalog group of degree >= 2 has a derangement (a 2-clique "
          "through the identity) and of degree >= 3 a triangle; each clique passes the "
          "clique-coclique audit against a stabilizer coclique")
def _check_corpus_jordan(budgets: Budgets):
    rows = {}
    for rec in catalog_index():
        name = rec["name"]
        G = catalog_load(name).group
        row = {}
        status, cert2 = quick_k_clique(G, 2, budgets)
        if status != "found":
            return "fail", {"group": name}, None, "no derangement found (Jordan)"
        row["jordan"] = 2
        top_cert = cert2
        if G.degree >= 3:
            status, cert3 = quick_k_clique(G, 3, budgets)
            if status != "found":
                return "fail", {"group": name}, None, "no triangle found"
            row["triangle"] = 3
            top_cert = cert3
        coclique = _stabilizer_coclique(G)
        clique_coclique_audit(top_cert, coclique, G)
        row["audit"] = f"{top_cert.size} * {coclique.size} <= {G.order()}"
        rows[name] = row
    return "pass", {"groups": len(rows)}, rows, ""


@register("numth-dominance-300",
          "the pairs (m, l) with 5 <= m <= 300 satisfying l mod p <= m mod p for every "
          "prime p >= 5 are exactly l in {1, m-1} with m of the form 2^a 3^b, plus "
          "(9,2) and (9,7)")
def _check_dominance(budgets: Budgets):
    got = set(mod_dominance_classify(300))
    predicted = set()
    for m in range(5, 301):
        n = m
        while n % 2 == 0:
            n //= 2
        while n % 3 == 0:
            n //= 3
        if n == 1:
            predicted.add((m, 1))
            predicted.add((m, m - 1))
    predicted.add((9, 2))
    predicted.add((9, 7))
    verdict = "pass" if got == predicted else "fail"
    surplus = sorted(got - predicted)
    missing = sorted(predicted - got)
    return (verdict, {"bound": 300, "count": len(got)},
            {"pairs": sorted(got)}, f"surplus={surplus} missing={missing}" if verdict == "fail" else "")


@register("numth-zsigmondy-table",
          "over 2 <= q <= 64 and 2 <= t <= 20, q^t - 1 lacks a primitive prime divisor "
          "exactly for (q, t) = (2, 6) and for t = 2 with q + 1 a power of two")
def _check_zsigmondy(budgets: Budgets):
    # the primes of Phi*_t(q) are exactly the primitive prime divisors of
    # q^t - 1, so the table needs no factoring and no primality test; the
    # factoring path is cross-checked against it for q <= 16
    bad = []
    exceptions = []
    for q in range(2, 65):
        for t in range(2, 21):
            exceptional = phi_star(t, q) == 1
            if (exceptional != zsigmondy_exception_expected(q, t)
                    or (q <= 16 and exceptional != primitive_prime_divisors(q, t).exceptional)):
                bad.append((q, t))
            if exceptional:
                exceptions.append((q, t))
    verdict = "pass" if not bad else "fail"
    return (verdict, {"q_max": 64, "t_max": 20},
            {"exceptions": exceptions}, f"mismatches: {bad}" if bad else "")


@register("numth-cyclotomic-identity",
          "the product of Phi_d(q) over divisors d of n equals q^n - 1 for n <= 30, q <= 16; "
          "rad(24) = 6 and Phi6*(2) follows the largest-prime dichotomy")
def _check_cyclotomic(budgets: Budgets):
    for n in range(1, 31):
        for q in range(2, 17):
            prod = 1
            for d in divisors(n):
                prod *= cyclotomic_value(d, q)
            if prod != q ** n - 1:
                return "fail", {"n": n, "q": q}, None, "product identity failed"
    if radical(24) != 6:
        return "fail", {}, None, "rad(24) != 6"
    checks = {"phi6(2)": cyclotomic_value(6, 2), "phi6*(2)": phi_star(6, 2),
              "phi4(3)": cyclotomic_value(4, 3), "phi4*(3)": phi_star(4, 3)}
    ok = (checks["phi6(2)"] == 3 and checks["phi6*(2)"] == 1
          and checks["phi4(3)"] == 10 and checks["phi4*(3)"] == 5)
    for n in range(3, 26):
        for q in range(2, 12):
            phi = cyclotomic_value(n, q)
            r = greatest_prime_factor(n)
            want = phi // r if phi % r == 0 else phi
            if phi_star(n, q) != want:
                ok = False
    return ("pass" if ok else "fail", {"n_max": 30, "q_max": 16}, checks, "")


@register("unipotent-families",
          "for q in {2,3,4,5} the displayed 4x4 unipotent family is an elementary "
          "abelian group of order q^2 whose non-identity members all have "
          "rank(x - 1) = 1; the symmetrized variant preserves the split symplectic form")
def _check_unipotent(budgets: Budgets):
    results = {}
    for q in (2, 3, 4, 5):
        p0, k = (2, 1) if q == 2 else (3, 1) if q == 3 else (2, 2) if q == 4 else (5, 1)
        F = GF(p0, k)
        ident = Matrix.identity(F, 4)
        fam = rank_one_unipotent_family(F)
        members = {m.rows for m in fam}
        if len(members) != q * q:
            return "fail", {"q": q}, None, "family size wrong"
        for a in fam:
            if (a * a).rows not in members:
                return "fail", {"q": q}, None, "not closed under squaring"
            if a != ident and (a.sub(ident).rank() != 1 or a.order() != p0):
                return "fail", {"q": q}, None, "rank or exponent invariant failed"
        for a in fam[: q]:
            for b in fam[: q]:
                if a * b != b * a:
                    return "fail", {"q": q}, None, "not abelian"
        J = split_symplectic_form(F, 2, lower_sign=-1)
        for a in symplectic_unipotent_family(F):
            if not preserves_symplectic(a, J):
                return "fail", {"q": q}, None, "symmetrized family not symplectic"
        results[str(q)] = {"order": q * q, "rank_one": True, "symplectic_variant": True}
    return "pass", {"q_values": [2, 3, 4, 5]}, results, ""


@register("ppd-block-witnesses",
          "diag(A, (A^-1)^T) with A of primitive-prime-divisor order preserves the split "
          "form and has irreducible characteristic block for (m, f) = (2,2) and (3,1); "
          "(f, m) in {(1,2), (3,2), (1,6)} is rejected")
def _check_ppd_witness(budgets: Budgets):
    results = {}
    for m, f, want_p in ((2, 2, 5), (3, 1, 7)):
        g, A, J, p = ppd_block_witness(m, f)
        if p != want_p or g.order() != p or not preserves_symplectic(g, J):
            return "fail", {"m": m, "f": f}, None, "order or form preservation failed"
        # in degree 2 and 3 a polynomial without a root in the field is irreducible
        if matrix_has_eigenvalue_in_base(A):
            return "fail", {"m": m, "f": f}, None, "characteristic polynomial reducible"
        results[f"m={m},f={f}"] = {"p": p, "dimension": 2 * m}
    for f, m in ((1, 2), (3, 2), (1, 6)):
        try:
            ppd_block_witness(m, f)
            return "fail", {"m": m, "f": f}, None, "exceptional pair not rejected"
        except ValueError:
            pass
    return "pass", {"cases": sorted(results)}, results, ""


@register("singer-minus-orders",
          "the norm-one multiplication matrix on the minus-type quadratic space has "
          "order (q^(m/2)+1)/gcd(2, q-1) and eigenvalue-free nontrivial powers for "
          "(m, q) in {(2,5), (4,3), (2,4)}")
def _check_singer(budgets: Budgets):
    results = {}
    for (m, q), want in (((2, 5), 3), ((4, 3), 5), ((2, 4), 5)):
        X, Q, expect = singer_minus(m, q)
        if expect != want or X.order() != want:
            return "fail", {"m": m, "q": q}, None, f"order != {want}"
        if not preserves_quadratic(X, Q):
            return "fail", {"m": m, "q": q}, None, "form not preserved"
        for ell in range(1, want):
            if matrix_has_eigenvalue_in_base(X ** ell):
                return "fail", {"m": m, "q": q}, None, f"power {ell} has an eigenvalue"
        results[f"m={m},q={q}"] = {"order": want}
    return "pass", {"cases": sorted(results)}, results, ""


@register("psp43-deg36-semiregular9",
          "PSp4(3) in its degree-36 primitive action admits a semiregular subgroup "
          "of order 9 (built live from the degree-40 action and its index-36 stabilizer)")
def _check_psp43(budgets: Budgets):
    gf40 = catalog_load("PSp4(3):40")
    action = coset_action(gf40.group, gf40.subgroups["index36_stabilizer"],
                          degree_budget=budgets.degree, element_budget=budgets.elements,
                          name="PSp4(3):36")
    G36 = action.group
    if G36.degree != 36 or G36.order() != 25920:
        return "fail", {}, None, "coset action has wrong shape"
    _, primitive = blocks_and_primitivity(G36)
    if not primitive:
        return "fail", {}, None, "degree-36 action is not primitive"
    # uncached: a cached census would keep this one-off group alive after the check
    census = element_census.__wrapped__(G36, budgets.elements)
    if 9 not in census.by_order:
        return "fail", {}, None, "no order-9 semiregular element found"
    w = SemiregularWitness("PSp4(3):36", [Permutation(census.by_order[9][1])], 9, "cyclic-scan")
    validate_semiregular(w, 36)
    shipped = catalog_load("PSp4(3):36").subgroups["semiregular9"]
    shipped_w = SemiregularWitness("PSp4(3):36", shipped, 9, "catalog")
    validate_semiregular(shipped_w, 36)
    return "pass", {"degree": 36, "order": 25920}, w.to_json_dict(), ""


@register("wreath-fpf-oracle",
          "the cycle-product rule for fixed points of (h_1, ..., h_k)a on Delta^k agrees "
          "with brute-force evaluation for |Delta| <= 6, k <= 3, over 1000 random elements")
def _check_wreath_oracle(budgets: Budgets):
    import random

    rng = random.Random(20240917)
    trials = 0
    for _ in range(1000):
        delta = rng.randrange(2, 7)
        kappa = rng.randrange(1, 4)
        hs = []
        for _ in range(kappa):
            images = list(range(delta))
            rng.shuffle(images)
            hs.append(Permutation(images))
        a_images = list(range(kappa))
        rng.shuffle(a_images)
        a = Permutation(a_images)
        fast = product_action_fpf(hs, a)
        slow = is_derangement(product_action_perm(hs, a))
        if fast != slow:
            return ("fail", {"delta": delta, "kappa": kappa}, None,
                    f"disagreement at {[h.images for h in hs]}, {a.images}")
        trials += 1
    return "pass", {"trials": trials}, {"trials": trials}, ""


@register("m11wr2-elusive",
          "M11 wr C2 in its product action on 144 points is elusive")
def _check_m11wr2_elusive(budgets: Budgets):
    base = catalog_load("M11:12").group
    top = cyclic_group(2)
    rep = wreath_elusive_check(base, top, budgets.elements)
    if rep.elusive is None:
        return "unknown", {}, None, rep.note
    return ("pass" if rep.elusive else "fail",
            {"base": "M11:12", "top": "C2", "degree": 144}, rep.to_json_dict(), "")


@register("m11wr2-product-clique",
          "a derangement h of M11:12 yields the validated 4-clique "
          "{(h^e1, h^e2)} inside M11 wr C2 acting on 144 points")
def _check_m11wr2_clique(budgets: Budgets):
    base = catalog_load("M11:12").group
    h = next(p for p in base.elements(budgets.elements) if is_derangement(p))
    cert = product_clique(h, 2, budgets.degree)
    if cert.size != 4:
        return "fail", {}, None, f"clique size {cert.size} != 4"
    validate_clique(cert)
    spec = WreathSpec(base, cyclic_group(2))
    W = wreath_product_action(spec, budgets.degree)
    if W.order() != wreath_expected_order(spec):
        return "fail", {}, None, "wreath order formula mismatch"
    for v in cert.vertices:
        if not W.membership(v):
            return "fail", {}, None, "clique vertex outside the wreath product"
    return "pass", {"degree": 144, "wreath_order": W.order()}, cert.to_json_dict(), ""


@register("corpus-density-upper",
          "every transitive catalog group of degree >= 3 has intersection density "
          "at most degree/3, witnessed by a validated triangle")
def _check_corpus_density(budgets: Budgets):
    rows = {}
    for rec in catalog_index():
        name = rec["name"]
        G = catalog_load(name).group
        if G.degree < 3:
            continue
        status, cert = quick_k_clique(G, 3, budgets)
        if status != "found":
            return "fail", {"group": name}, None, "no triangle"
        rho_upper = Fraction(G.degree, cert.size)
        if rho_upper > Fraction(G.degree, 3):
            return "fail", {"group": name}, None, "upper bound exceeds degree/3"
        rows[name] = str(rho_upper)
    return "pass", {"groups": len(rows)}, rows, ""


# The coclique oracle stops at floor(|G| / |C|) for a clique C it finds and would
# answer above this order too; the cap stays so the report keeps its rows and bytes.
_COCLIQUE_ORACLE_CAP = 168


@register("oracle-equivalence",
          "for every catalog group of order <= 720 the stabilizer-chain order, the "
          "maximum clique, the maximum intersecting family and the maximum semiregular "
          "subgroup agree with independent exhaustive computations")
def _check_oracle_equivalence(budgets: Budgets):
    from .oracles import (
        closure_order,
        exhaustive_max_clique,
        exhaustive_max_coclique,
        exhaustive_max_semiregular,
    )

    rows = {}
    for rec in catalog_index():
        if rec["order"] > 720:
            continue
        name = rec["name"]
        G = catalog_load(name).group
        row = {}

        if closure_order(G) != G.order():
            return "fail", {"group": name}, None, "order mismatch vs closure"
        row["order"] = G.order()

        cl = max_clique(G, budgets.nodes, budgets.elements)
        omega = exhaustive_max_clique(G)
        if not cl.optimal or cl.certificate.size != omega:
            return ("fail", {"group": name}, None,
                    f"clique {cl.certificate.size} (closed={cl.optimal}) vs oracle {omega}")
        row["omega"] = omega

        co = max_intersecting_family(G, budgets.nodes, budgets.elements,
                                     clique_size_hint=omega)
        if G.order() <= _COCLIQUE_ORACLE_CAP:
            alpha = exhaustive_max_coclique(G)
            if not co.optimal or co.certificate.size != alpha:
                return ("fail", {"group": name}, None,
                        f"coclique {co.certificate.size} vs oracle {alpha}")
            row["alpha"] = alpha
        else:
            # above the cap the clique-coclique ceiling must close: alpha * omega = |G|
            if not co.optimal or co.certificate.size * omega != G.order():
                return ("fail", {"group": name}, None,
                        "coclique not certified by the clique-coclique ceiling")
            row["alpha"] = co.certificate.size
            row["alpha_certified_by"] = "clique-coclique ceiling"

        sr = max_semiregular_order(G, budgets.elements, budgets.nodes)
        oracle_sr = exhaustive_max_semiregular(G)
        if not sr.optimal or sr.witness.order != oracle_sr:
            return ("fail", {"group": name}, None,
                    f"semiregular {sr.witness.order} (closed={sr.optimal}) vs oracle {oracle_sr}")
        row["max_semiregular"] = oracle_sr
        rows[name] = row
    return "pass", {"groups": len(rows)}, rows, ""


# -- analyze and corpus scanning ---------------------------------------------------


def _closed_density(G: PermGroup) -> dict:
    """The density report of a transitive G holding an n-clique: rho = 1.

    Two members of a clique differ at point 0, so omega <= n, and an
    n-clique is maximum. A point stabilizer is an intersecting family, and
    alpha * omega <= |G| (Godsil-Meagher 2016), so alpha = |G_x|. The
    stabilizer is never enumerated.
    """
    stab = G.stabilizer_order()
    one = Fraction(1)
    return DensityReport(G.name, G.degree, G.order(), stab, stab, G.degree,
                         True, True, one, one, "ok").to_json_dict()


def analyze(source: str | Path | GroupFile, budgets: Budgets | None = None,
            deep: bool = False) -> dict:
    """Full deterministic report for one group (file path or catalog name).

    The largest semiregular subgroup found, of order m, is checked once as a
    semiregular subgroup of G (one generator by its cycles, with no element
    built), and its m elements are an m-clique: two differ by a derangement.
    ``clique_lower_bound`` is the largest k <= 4 with a k-clique: the ladder
    tries k = 4, 3, 2 and stops at the first k that the witness answers
    (k <= m) or that has a validated k-clique, from the greedy prefix or the
    exact search when G can be enumerated, by sampling (None when no sample
    gives a 2-clique) when it cannot.

    A witness of order n closes the density at rho = 1 with no search, at
    any group order; otherwise the exact searches run up to order 5000 (any
    order with ``deep``), and above it the report is partial, its clique the
    larger of the ladder's and the witness's.
    """
    budgets = budgets or Budgets()
    gf = source if isinstance(source, GroupFile) else resolve_group(source)
    G = gf.group
    report: dict = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "name": gf.name,
        "degree": G.degree,
        "order": G.order(),
        "transitive": G.is_transitive(),
    }
    if not report["transitive"]:
        report["status"] = "intransitive: analysis limited to order and orbits"
        report["orbits"] = G.orbits()
        return report
    systems, primitive = blocks_and_primitivity(G)
    report["primitive"] = primitive
    report["block_systems"] = len(systems)
    report["stabilizer_order"] = G.stabilizer_order()

    if G.order() <= budgets.elements:
        report["derangement_count"] = element_census(G, budgets.elements).derangements
        rep = is_elusive(G, budgets.elements)
        report["elusive"] = rep.elusive
        if rep.witness is not None:
            report["elusive_witness_order"] = rep.witness_order
        r = max_semiregular_order(G, budgets.elements, budgets.nodes)
        validate_semiregular(r.witness, G.degree)
        if not all(map(G.membership, r.witness.generators)):
            raise WitnessError("a semiregular witness generator lies outside the group")
        m = r.witness.order
        report["clique_lower_bound"] = next(
            (k for k in (4, 3, 2) if k <= m or quick_k_clique(G, k, budgets)[0] == "found"), 1)
        report["max_semiregular_order"] = m
        report["max_semiregular_method"] = r.witness.method
        report["max_semiregular_closed"] = r.optimal
        best_clique = max(report["clique_lower_bound"], m)
        if best_clique == G.degree:
            report["density"] = _closed_density(G)
        elif deep or G.order() <= 5000:
            report["density"] = density_bounds(G, budgets.nodes, budgets.elements).to_json_dict()
    else:
        report["derangement_count"] = None
        report["elusive"] = None
        report["clique_lower_bound"] = next(
            (k for k in (4, 3, 2) if sampled_k_clique(G, k) is not None), None)
        report["clique_lower_bound_method"] = "sampled"
        report["max_semiregular_order"] = None
        report["max_semiregular_closed"] = False
        best_clique = report["clique_lower_bound"]

    if "density" in report:
        return report
    # without the exact searches, certificate-backed partial bounds: the
    # clique caps rho from above, the stabilizer coclique bounds it from
    # below; never fabricated
    if best_clique:
        report["density"] = {
            "status": "partial",
            "rho_lower": "1",
            "rho_upper": str(Fraction(G.degree, best_clique)),
            "best_clique": best_clique,
            "clique_optimal": False,
            "coclique_optimal": False,
        }
    else:
        report["density"] = {"status": "unknown"}
    return report


def corpus_scan(directory: str | Path, budgets: Budgets | None = None) -> dict:
    """Analyze every .json group file in a directory, in name order.

    Reads the directory and writes nothing. ``index.json`` and dot-files are
    skipped, so the dot-file row cache that earlier builds wrote there
    is not read as a group file.
    """
    budgets = budgets or Budgets()
    rows = []
    for path in sorted(Path(directory).glob("*.json")):
        if path.name == "index.json" or path.name.startswith("."):
            continue
        try:
            row = analyze(path, budgets)
            row["file"] = path.name
            row["integrity"] = "ok"
        except (IntegrityError, BudgetError) as exc:
            row = {"file": path.name, "integrity": "error", "error": str(exc)}
        rows.append(row)
    failures = sum(1 for row in rows if row.get("integrity") != "ok")
    return {"rows": rows, "integrity_failures": failures}
