import gc
import hashlib
import importlib.util
import itertools
import json
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from drg import group, semireg
from drg.catalog import catalog_index, catalog_load
from drg.checks import Budgets
from drg.constructions import natural_alt
from drg.group import BlockSystem, PermGroup, close_subgroup, coset_action
from drg.numth import is_prime
from drg.oracles import exhaustive_max_semiregular
from drg.perm import (
    Permutation,
    PermError,
    compose,
    has_fixed_point,
    is_derangement,
    parse_cycles,
)
from drg.semireg import (
    ElusivenessReport,
    _coset_has_fixed_point,
    _extend_semiregular,
    _forces_normal_sylow,
    _orbit_labels,
    SemiregularWitness,
    WitnessError,
    common_cycle_length,
    element_census,
    is_elusive,
    is_semiregular_element,
    is_semiregular_subgroup,
    lift_semiregular,
    max_semiregular_order,
    product_action_fpf,
    product_action_order,
    product_action_perm,
    semiregular_bound_certificate,
    semiregular_primes,
    validate_semiregular,
    validate_semiregular_bound,
    wreath_elusive_check,
)


def cyclic(n):
    return PermGroup([parse_cycles(f"({','.join(map(str, range(n)))})", n)], name=f"C{n}")


def sym(n):
    return PermGroup(
        [parse_cycles("(0,1)", n), parse_cycles(f"({','.join(map(str, range(n)))})", n)],
        name=f"S{n}",
    )


def alt(n):
    gens = [parse_cycles("(0,1,2)", n)]
    if n % 2:
        gens.append(parse_cycles(f"({','.join(map(str, range(n)))})", n))
    else:
        gens.append(parse_cycles(f"({','.join(map(str, range(1, n)))})", n))
    return PermGroup(gens, name=f"A{n}")


def a5_on_6():
    INF = 5

    def moebius(f):
        return Permutation([f(z) for z in range(6)])

    def add1(z):
        return INF if z == INF else (z + 1) % 5

    def neginv(z):
        if z == INF:
            return 0
        if z == 0:
            return INF
        return (-pow(z, 3, 5)) % 5

    return PermGroup([moebius(add1), moebius(neginv)], name="A5:6")


def test_semiregular_element_basics():
    assert is_semiregular_element(Permutation.identity(4))
    assert is_semiregular_element(parse_cycles("(0,1)(2,3)", 4))
    assert not is_semiregular_element(parse_cycles("(0,1,2)", 4))


def _closure_definition(gens, n):
    """Whether <gens> is semiregular, and its order, from its whole closure."""
    elems = close_subgroup(gens, n, 10 ** 6)
    return not any(has_fixed_point(p.images) for p in elems if not p.is_identity()), len(elems)


def test_semiregular_element_tests_match_the_closure_definition():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randrange(2, 9)
        images = list(range(n))
        rng.shuffle(images)
        p = Permutation(images)
        semiregular, _ = _closure_definition([p], n)
        assert is_semiregular_element(p) == is_semiregular_subgroup([p], n) == semiregular


def test_semiregular_subgroup_examples():
    assert is_semiregular_subgroup([Permutation.identity(5)], 5)
    C5 = cyclic(5)
    assert is_semiregular_subgroup(list(C5.generators), 5)
    # a point stabilizer of order > 1 fixes a point
    assert not is_semiregular_subgroup([parse_cycles("(1,2)", 4)], 4)


def test_is_semiregular_subgroup_rejects_an_order_above_the_degree():
    # S8 on 8 points: its order exceeds the degree, so it is not semiregular
    assert not is_semiregular_subgroup(list(sym(8).generators), 8)


def test_semiregular_subgroup_checks_match_the_closure_definition():
    # every cyclic subgroup, and seeded samples of pairs of semiregular
    # elements, of any elements and of triples of semiregular elements, in
    # the catalog groups of order <= 168: is_semiregular_subgroup gives the
    # definition's bool, and validate_semiregular accepts exactly the
    # semiregular ones at the definition's order
    rng = random.Random(12)
    semiregular = joins = triples = 0
    for rec in catalog_index():
        if rec["order"] > 168:
            continue
        G = catalog_load(rec["name"]).group
        n = G.degree
        elements = [Permutation(t) for t in G.element_images()]
        fpf = [p for p in elements if is_semiregular_element(p) and not p.is_identity()]
        cases = [[p] for p in elements]
        cases += [rng.sample(fpf, 2) for _ in range(60)] if len(fpf) > 1 else []
        cases += [rng.sample(elements, 2) for _ in range(30)]
        cases += [rng.sample(fpf, 3) for _ in range(30)] if len(fpf) > 2 else []
        for gens in cases:
            expected, order = _closure_definition(gens, n)
            assert is_semiregular_subgroup(gens, n) == expected, (rec["name"], gens)
            witness = SemiregularWitness("", gens, order, "catalog")
            if expected:
                validate_semiregular(witness, n)
            else:
                with pytest.raises(WitnessError):
                    validate_semiregular(witness, n)
            semiregular += expected
            joins += expected and len(gens) == 2
            triples += expected and len(gens) == 3
    assert semiregular > 100 and joins > 20 and triples > 10


def test_validate_semiregular_reads_one_generator_off_its_cycles(monkeypatch):
    # the n-cycle of C_800 is semiregular of order 800 by its one cycle: no
    # element of its group is built
    def no_closure(*args, **kwargs):
        raise AssertionError("a one-generator witness was closed")

    monkeypatch.setattr(semireg, "close_subgroup", no_closure)
    validate_semiregular(SemiregularWitness("C800", list(cyclic(800).generators), 800,
                                            "catalog"), 800)


def test_is_semiregular_subgroup_builds_no_stabilizer_chain(monkeypatch):
    # S_60's closure stops at its 61st element; its chain is never built
    gens = list(sym(60).generators)

    def no_chain(self):
        raise AssertionError("a stabilizer chain was built")

    monkeypatch.setattr(PermGroup, "_build_chain", no_chain)
    assert not is_semiregular_subgroup(gens, 60)


def test_one_generator_with_two_cycle_lengths_is_not_semiregular():
    g = parse_cycles("(0,1,2)(3,4)", 5)
    with pytest.raises(WitnessError, match=r"has cycles of lengths \[2, 3\], so it is not"):
        validate_semiregular(SemiregularWitness("", [g], 6, "catalog"), 5)
    assert not is_semiregular_subgroup([g], 5)
    with pytest.raises(PermError):
        is_semiregular_subgroup([g], 6)


def test_semiregular_primes_c5():
    assert semiregular_primes(cyclic(5)) == {5}
    assert semiregular_primes(sym(3)) == {3}
    assert semiregular_primes(sym(4)) == set()


def test_semiregular_prime_elements_are_derangements():
    for G in (cyclic(5), sym(3), alt(4), alt(5), a5_on_6()):
        for p in semiregular_primes(G):
            for g in G.elements():
                if g.order() == p:
                    assert is_derangement(g)
                    assert is_semiregular_element(g)


def test_is_elusive_small_groups():
    rep = is_elusive(alt(5))
    assert rep.elusive is False and rep.witness.order() == 5
    rep = is_elusive(cyclic(4))
    assert rep.elusive is False and rep.witness_order == 2
    assert set(rep.primes_checked) == {2}


def test_max_semiregular_regular_groups():
    r = max_semiregular_order(cyclic(5))
    assert r.optimal and r.witness.order == 5
    validate_semiregular(r.witness, 5)
    r = max_semiregular_order(sym(3))
    assert r.optimal and r.witness.order == 3


def test_max_semiregular_alt4_finds_klein_four():
    r = max_semiregular_order(alt(4))
    assert r.optimal and r.witness.order == 4
    assert r.witness.method == "backtrack"
    validate_semiregular(r.witness, 4)


def test_max_semiregular_zero_node_budget_is_not_closed():
    # no extension attempt is allowed, so the search cannot reach the Klein
    # four-group and must not claim that order 2 is maximal
    r = max_semiregular_order(alt(4), node_budget=0)
    assert not r.optimal
    assert r.witness.order == 2


def test_max_semiregular_a5_deg6():
    r = max_semiregular_order(a5_on_6())
    assert r.optimal
    assert r.witness.order == 3
    # no semiregular element has even order, so 3 is the prime-part bound
    # and the search closes with no extension attempt
    assert r.nodes == 0
    validate_semiregular(r.witness, 6)


def test_max_semiregular_brute_force_small():
    # oracle: all subgroups of order dividing n via join closure, test each
    catalog = [catalog_load(name).group for name in ("D6:6", "Q8:8", "PSL2(7):8")]
    # order 64: a search from the last conjugacy-class root alone finds only 4
    two_roots = PermGroup([(7, 6, 4, 5, 2, 3, 0, 1), (6, 7, 0, 1, 3, 2, 5, 4)])
    for G in (cyclic(6), sym(4), alt(4), alt(5), a5_on_6(), *catalog, two_roots):
        n = G.degree
        elements = [Permutation(t) for t in G.element_images()]
        subgroups = {frozenset({tuple(range(n))})}
        frontier = [frozenset({tuple(range(n))})]
        while frontier:
            new = []
            for H in frontier:
                gens = [Permutation(t) for t in H]
                for g in elements:
                    closed = close_subgroup(gens + [g], n, n)
                    if closed is None:
                        continue
                    key = frozenset(p.images for p in closed)
                    if key not in subgroups:
                        subgroups.add(key)
                        new.append(key)
            frontier = new
        best = 1
        for H in subgroups:
            ident = tuple(range(n))
            if all(t == ident or all(i != j for i, j in enumerate(t)) for t in H):
                best = max(best, len(H))
        r = max_semiregular_order(G)
        assert r.optimal, G.name
        assert r.witness.order == best, (G.name, r.witness.order, best)


def _join_by_definition(K_gens, q, n):
    """Element set of <K, q> if it is semiregular, else None, from close_subgroup."""
    closed = close_subgroup(K_gens + [q], n, n)
    if closed is None:
        return None
    if any(not p.is_identity() and not is_derangement(p) for p in closed):
        return None
    return {p.images for p in closed}


def _census_by_definition(G):
    """(derangement count, sorted semiregular images, order -> (count, least))
    from one fixed-point test and one cycle walk per element."""
    deranged = [x for x in G.iter_images() if not has_fixed_point(x)]
    semiregular = sorted(x for x in deranged if common_cycle_length(x) is not None)
    by_order = {}
    for x in semiregular:  # sorted, so the first of each order is the least
        m = common_cycle_length(x)
        total, least = by_order.get(m, (0, x))
        by_order[m] = (total + 1, least)
    return len(deranged), tuple(semiregular), dict(sorted(by_order.items()))


def _assert_census_matches_definition(G, label):
    count, semiregular, by_order = _census_by_definition(G)
    census = element_census.__wrapped__(G, G.order())
    images = tuple(census.semiregular_images())
    assert census.derangements == count, label
    assert images == semiregular, label
    assert census.by_order == by_order, label
    assert list(census.by_order) == sorted(census.by_order), label
    assert census.semiregular_count == len(semiregular), label
    if semiregular:
        orders = list(map(common_cycle_length, images))
        top = max(orders)
        assert census.by_order[top][1] == images[orders.index(top)], label


def test_element_census_matches_definition_on_catalog():
    # the one-coset-per-suborbit census against one fixed-point test per element
    checked = 0
    for rec in catalog_index():
        if rec["order"] > 25_920:
            continue
        G = catalog_load(rec["name"]).group
        assert G.base_stabilizer()[0] == 0, rec["name"]
        _assert_census_matches_definition(G, rec["name"])
        checked += 1
    assert checked >= 30


def _affine_line(p):
    """AGL1(p) on Z_p: x -> x + 1 and x -> 2x."""
    return PermGroup([[(x + 1) % p for x in range(p)], [2 * x % p for x in range(p)]],
                     name=f"AGL1({p})")


def _dihedral(n):
    """D_n on Z_n: x -> x + 1 and x -> -x."""
    return PermGroup([[(x + 1) % n for x in range(n)], [-x % n for x in range(n)]],
                     name=f"D{n}")


@pytest.mark.parametrize("G, level1, suborbits", [
    # G_0 = Z_101^*, regular on the other points: one coset, masks of 100 bits
    (_affine_line(101), 100, 1),
    # G_0 = {1, x -> -x}: two-element masks, one suborbit {r, -r} per pair
    (_dihedral(60), 2, 30),
    (sym(6), 5, 1),
    # S4 on {0..3} times S3 on {4, 5, 6}: G_0 moves the second orbit
    (PermGroup([parse_cycles(c, 7) for c in ("(0,1)", "(0,1,2,3)", "(4,5)", "(4,5,6)")]),
     3, 1),
], ids=["AGL1(101)", "D60", "S6", "S4xS3"])
def test_element_census_matches_definition_on_other_shapes(G, level1, suborbits):
    (_, transversal), _ = G.level_transversals(2, G.order())
    assert len(transversal) == level1
    assert len(element_census.__wrapped__(G, G.order()).suborbits) == suborbits
    _assert_census_matches_definition(G, G.name)


def _random_subgroups(seed, count):
    """Subgroups of S_n, 2 <= n <= 8, each generated by 1 to 3 random
    permutations of random subsets of at least two points."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 8)
        gens = []
        for _ in range(rng.randint(1, 3)):
            support = rng.sample(range(n), rng.randint(2, n))
            images = list(range(n))
            for i, j in zip(support, rng.sample(support, len(support))):
                images[i] = j
            gens.append(Permutation(images))
        yield PermGroup(gens, n)


def test_element_census_matches_definition_on_random_subgroups():
    # the census reads one coset per suborbit of the least moved point a,
    # off a chain based at a. The chain once opened at the least point b
    # moved by the first non-identity generator; these groups reach every
    # way a can sit against that b: equal, in b's orbit, outside it. The
    # first fixed group is S3 on {0, 4, 5} and {1, 2, 3} with b = 2 outside
    # a = 0's orbit: a census around b would count right but name
    # (0 5 4)(1 3 2), not (0 4 5)(1 2 3), the least element of order 3
    fixed = [PermGroup([(0, 1, 3, 2, 5, 4), (4, 2, 3, 1, 5, 0)]),
             PermGroup([Permutation.identity(5)])]
    kinds = dict.fromkeys(("trivial", "intransitive", "in-orbit", "outside"), 0)
    for i, G in enumerate(fixed + list(_random_subgroups(20261019, 150))):
        moved = [x for g in G.generators for x, y in enumerate(g.images) if x != y]
        if not moved:
            kinds["trivial"] += 1
        else:
            kinds["intransitive"] += not G.is_transitive()
            assert G.base_stabilizer()[0] == min(moved), i
            first = next(g for g in G.generators if not g.is_identity())
            b = min(x for x, y in enumerate(first.images) if x != y)
            if min(moved) != b:
                kinds["in-orbit" if b in G.orbit(min(moved)) else "outside"] += 1
        _assert_census_matches_definition(G, (i, [g.images for g in G.generators]))
    assert all(kinds.values()), kinds


def test_extend_semiregular_matches_close_subgroup():
    # K runs over the cyclic semiregular subgroups and their semiregular
    # joins, q over every element of G outside K; the coset test of qK is
    # checked against a scan of its elements
    joins = semiregular = 0
    for rec in catalog_index():
        if rec["order"] > 360:
            continue
        G = catalog_load(rec["name"]).group
        n = G.degree
        elements = [Permutation(t) for t in G.element_images()]
        subgroups = {}
        for p in elements:
            if not p.is_identity() and is_semiregular_element(p):
                key = frozenset(q.images for q in close_subgroup([p], n, n))
                subgroups.setdefault(key, [p])
        level = list(subgroups.items())
        for depth in range(2):
            found = []
            for key, K_gens in level:
                K = [tuple(range(n))] + sorted(key - {tuple(range(n))})
                label = _orbit_labels(K)
                for q in elements:
                    if q.images in key:
                        continue
                    scan = any(q.images[k[i]] == i for k in K for i in range(n))
                    assert _coset_has_fixed_point(q.images, label) == scan, (rec["name"], q)
                    got = _extend_semiregular(K, label, [g.images for g in K_gens], q.images, n)
                    want = _join_by_definition(K_gens, q, n)
                    assert (got is None) == (want is None), (rec["name"], K_gens, q)
                    joins += 1
                    if got is None:
                        continue
                    semiregular += 1
                    assert len(got) == len(set(got)) and set(got) == want
                    assert got[:len(K)] == K
                    if depth == 0 and frozenset(want) not in subgroups:
                        subgroups[frozenset(want)] = K_gens + [q]
                        found.append((frozenset(want), K_gens + [q]))
            level = found
    assert joins > 10_000 and semiregular > 100


def test_max_semiregular_closes_on_the_catalog_at_analyze_budgets():
    b = Budgets()
    expected = {"A8:8": 8, "M11:11": 11, "M12:12": 12, "PSL2(11):12": 12,
                "PSp4(3):36": 9, "PSp4(3):40": 20}
    for name, order in expected.items():
        G = catalog_load(name).group
        r = max_semiregular_order(G, b.elements, b.nodes)
        assert r.optimal, name
        assert r.witness.order == order, (name, r.witness.order)
        validate_semiregular(r.witness, G.degree)


def test_max_semiregular_returns_at_the_bound_before_the_walks(monkeypatch):
    # a best cyclic order that meets the prime-part bound is returned before
    # the search, so no semiregular image is built by conjugation
    def fail(*args):
        raise AssertionError("semiregular_images called")

    monkeypatch.setattr(semireg.ElementCensus, "semiregular_images", fail)
    b = Budgets()
    for name in ("A7:7", "PSp4(3):36"):
        G = catalog_load(name).group
        r = max_semiregular_order(G, b.elements, b.nodes)
        assert r.optimal and r.nodes == 0, name


def test_census_builds_no_conjugator_until_the_images_are_read(monkeypatch):
    # the census keeps G_a's generators, and a suborbit's transversal is
    # built only when semiregular_images is read, which a search that meets
    # its bound at once never does
    def fail(*args):
        raise AssertionError("orbit_transversal called")

    monkeypatch.setattr(semireg, "orbit_transversal", fail)
    b = Budgets()
    for name in ("A7:7", "PSp4(3):36"):
        G = catalog_load(name).group
        census = element_census.__wrapped__(G, b.elements)
        assert census.semiregular_count > 0 and census.suborbits, name
        r = max_semiregular_order(G, b.elements, b.nodes)
        assert r.optimal and r.nodes == 0, name
        with pytest.raises(AssertionError, match="orbit_transversal"):
            next(census.semiregular_images())


def test_max_semiregular_cyclic_answer_is_the_first_element_of_largest_order():
    # without a search node, the witness is the first census element of the
    # largest order, computed here from common_cycle_length
    b = Budgets()
    checked = 0
    for rec in catalog_index():
        if rec["order"] > 25_920:
            continue
        G = catalog_load(rec["name"]).group
        if not G.is_transitive():
            continue
        r = max_semiregular_order(G, b.elements, b.nodes)
        if r.nodes:
            continue
        census = tuple(element_census(G, b.elements).semiregular_images())
        if not census:
            assert r.witness.order == 1, rec["name"]
            continue
        orders = list(map(common_cycle_length, census))
        top = max(orders)
        assert r.witness.generators == [Permutation(census[orders.index(top)])], rec["name"]
        assert r.witness.order == top, rec["name"]
        coprime = is_prime(top) and top in semiregular_primes(G)
        assert r.witness.method == ("order-coprime" if coprime else "cyclic-scan"), rec["name"]
        checked += 1
    assert checked >= 20


# 2-generated groups that are not in the catalog: order 1536 on 12 points, and
# a subgroup of S3 wr S4 in which a child of the first root is the cyclic
# subgroup of a later root, which the search must expand as that root
GENERATED = {
    "order-1536": [(10, 11, 3, 2, 6, 7, 5, 4, 9, 8, 0, 1), (4, 5, 7, 6, 8, 9, 10, 11, 0, 1, 2, 3)],
    "S3wrS4-subgroup": [(7, 8, 6, 10, 9, 11, 0, 1, 2, 4, 5, 3),
                        (3, 5, 4, 0, 2, 1, 8, 7, 6, 10, 9, 11)],
}


def test_max_semiregular_searches_from_every_conjugacy_class_root():
    # order 1536 on 12 points: a search from the first root alone finds only 6
    G = PermGroup(GENERATED["order-1536"])
    assert G.order() == 1536 and G.is_transitive()
    r = max_semiregular_order(G)
    assert r.optimal and r.witness.order == 12
    validate_semiregular(r.witness, G.degree)


@pytest.mark.parametrize("name, order, nodes", [
    ("A4:4", 4, 1), ("S4:6", 6, 3), ("Q8:8", 8, 4), ("PSL2(7):8", 8, 10),
    ("PSL2(11):12", 12, 25), ("PSU3(3):36", 3, 27), ("A8:8", 8, 204),
    ("PSp4(3):40", 20, 655), ("M12:12", 12, 1010),
    ("order-1536", 12, 440), ("S3wrS4-subgroup", 6, 637),
])
def test_max_semiregular_search_order_and_nodes_are_pinned(name, order, nodes):
    # the search's visiting order shows in its node count
    b = Budgets()
    G = PermGroup(GENERATED[name]) if name in GENERATED else catalog_load(name).group
    r = max_semiregular_order(G, b.elements, b.nodes)
    assert (r.witness.order, r.nodes) == (order, nodes)
    assert r.optimal
    validate_semiregular(r.witness, G.degree)


def test_max_semiregular_reads_the_images_lazily(monkeypatch):
    # PSp4(3):40 has 8,694 semiregular images; its search meets the bound
    # inside the first root's candidate loop, having read fewer than 1,000
    images = semireg.ElementCensus.semiregular_images
    read = []

    def counted(self):
        for x in images(self):
            read.append(x)
            yield x

    monkeypatch.setattr(semireg.ElementCensus, "semiregular_images", counted)
    b = Budgets()
    r = max_semiregular_order(catalog_load("PSp4(3):40").group, b.elements, b.nodes)
    assert (r.witness.order, r.nodes, r.semiregular_element_count) == (20, 655, 8_694)
    assert 0 < len(read) < 1_000
    assert read == sorted(read)


def test_element_census_of_a_large_regular_group_stays_small():
    # C_800 has 799 one-point suborbits, the census builds no conjugator for
    # them, and each D_r = {u_r} keeps the chain's own u_r: the kept census
    # is 0.16 MB measured, a census that copied its 799 elements 5.4 MB
    G = cyclic(800)
    G.order()
    G.base_stabilizer()
    gc.collect()
    tracemalloc.start()
    try:
        census = element_census.__wrapped__(G, G.order())
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert census.derangements == census.semiregular_count == 799
    assert kept < 8_000_000, kept


def test_element_census_of_a_large_regular_group_peaks_small():
    # the suborbit representatives come from the chain, not from a fresh
    # 800-tuple each, and C_800's one-element cosets need no inverse: the
    # peak is 0.24 MB measured
    G = cyclic(800)
    G.order()
    gc.collect()
    tracemalloc.start()
    try:
        census = element_census.__wrapped__(G, G.order())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert census.derangements == census.semiregular_count == 799
    assert peak < 8_000_000, peak


def _pairs_times_cyclic(k, m):
    """C_2^k swapping the pairs {2i, 2i+1}, times C_m rotating the m points above them."""
    n = 2 * k + m
    gens = [[2 * i + 1 - x % 2 if x // 2 == i else x for x in range(n)] for i in range(k)]
    gens.append(list(range(2 * k)) + [2 * k + (x + 1) % m for x in range(m)])
    return PermGroup(gens, name=f"C2^{k}xC{m}")


def test_element_census_of_an_intransitive_group_rewalks_a_wide_stabilizer():
    # a = 0 and b = 2, so G_{a,b} = C_2^6 x C_50 has 3,200 elements on 66 points,
    # past the listing threshold: a census that listed that walk peaks near
    # 1.9 MB, one that walks it again off the chain per coset at 0.04 MB measured
    G = _pairs_times_cyclic(8, 50)
    (_, level1), _ = G.level_transversals(2, G.order())
    assert len(level1) == 2
    assert G.order() // (2 * 2) * G.degree > group._LISTED_WALK_ENTRIES
    G.base_stabilizer()
    gc.collect()
    tracemalloc.start()
    try:
        census = element_census.__wrapped__(G, G.order())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # every pair swapped and a nontrivial rotation; the half turn is semiregular
    assert census.derangements == 49 and list(census.by_order) == [2]
    assert peak < 1_000_000, peak
    _assert_census_matches_definition(G, G.name)


def _load_corpus_tool():
    path = Path(__file__).resolve().parent.parent / "tools" / "semireg_corpus.py"
    spec = importlib.util.spec_from_file_location("semireg_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return path, module


def test_semireg_corpus_seed_has_no_mismatch():
    path, _ = _load_corpus_tool()
    out = subprocess.run([sys.executable, str(path), "1"], capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    searched = re.search(r"seed 1: 150 groups, (\d+) reached the search, 0 mismatches",
                         out.stdout)
    assert searched and int(searched.group(1)) > 0, out.stdout


def test_semiregular_oracle_matches_the_reference_walk_on_the_catalog():
    _, corpus = _load_corpus_tool()
    compared = 0
    for rec in catalog_index():
        if rec["order"] <= 360:
            G = catalog_load(rec["name"]).group
            assert exhaustive_max_semiregular(G) == corpus.reference_max_semiregular(G), G.name
            compared += 1
    assert compared == 24


def test_semireg_corpus_prints_the_generators_of_a_mismatch(monkeypatch, capsys):
    _, corpus = _load_corpus_tool()
    monkeypatch.setattr(corpus, "exhaustive_max_semiregular", lambda G: 0)
    ambients = {n: corpus.ambient_groups(n) for n in range(4, 11)}
    assert corpus.run_seed(1, 3, ambients) == 3
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 and all("generators [[" in line for line in lines[:3])
    monkeypatch.setattr(corpus, "run_seed", lambda seed, groups, ambients: 1)
    assert corpus.main(["1"]) == 1


@pytest.mark.parametrize("d, p, forced", [
    (40, 5, True), (20, 5, True), (10, 5, True), (15, 5, True),
    (30, 5, False),  # 6 divides 6 and is 1 mod 5
    (12, 3, False),  # 4 divides 4 and is 1 mod 3
    (60, 5, False),  # 6 divides 12
    (50, 5, False),  # 5 divides 50 twice
])
def test_forces_normal_sylow(d, p, forced):
    assert _forces_normal_sylow(d, p) is forced


@pytest.mark.parametrize("m, H_cycles, degree, order, excluded", [
    (4, [], 12, 12, {}),             # A4 regular: 12 stays, 4 = 1 mod 3
    (5, [], 60, 60, {}),             # A5 regular: 60 stays, 4 and 6 are 1 mod 3 and 5
    (5, ["(0,1,2)"], 20, 10, {20: 5}),
    (5, ["(0,1)(2,3)"], 30, 5, {15: 3}),
    (5, ["(0,1)(2,3)", "(0,2)(1,3)"], 15, 5, {15: 3}),
])
def test_max_semiregular_sylow_exclusions_match_the_oracle(m, H_cycles, degree, order, excluded):
    # the rule is consulted on each group; where it lowers the bound the
    # search closes below the prime-part bound, and the oracle agrees
    A = natural_alt(m)
    H_gens = [parse_cycles(c, m) for c in H_cycles] or [Permutation.identity(m)]
    G = coset_action(A, H_gens).group
    assert G.degree == degree
    r = max_semiregular_order(G)
    assert r.optimal and r.witness.order == order == exhaustive_max_semiregular(G)
    assert {d: p for d, (p, _) in r.excluded.items()} == excluded
    assert all(x.order() == p for p, x in r.excluded.values())
    validate_semiregular(r.witness, degree)


def test_max_semiregular_psp43_40_closes_at_the_sylow_bound():
    # 40 is excluded (every group of order 40 has a normal C5, and
    # |N_G(C5)| = 20), so the search stops at its first join of order 20
    b = Budgets()
    G = catalog_load("PSp4(3):40").group
    r = max_semiregular_order(G, b.elements, b.nodes)
    assert r.optimal and r.witness.order == 20 and r.witness.method == "backtrack"
    assert list(r.excluded) == [40] and r.excluded[40][0] == 5
    assert r.excluded[40][1].order() == 5
    assert r.nodes < 1000
    digest = hashlib.sha256(json.dumps(r.witness.to_json_dict()).encode()).hexdigest()
    assert digest.startswith("b22c9b3f6801")


def test_max_semiregular_sylow_rule_fires_on_no_other_catalog_group():
    # where the rule excludes nothing, the search is the one before it: node
    # counts, optimality flags and witnesses hash to what it returned
    b = Budgets()
    searched = {"A4:4": 1, "A8:8": 204, "M12:12": 1010, "PSL2(11):12": 25,
                "PSL2(7):8": 10, "PSU3(3):36": 27, "Q8:8": 4, "S4:6": 3}
    h = hashlib.sha256()
    for rec in catalog_index():
        if rec["name"] == "PSp4(3):40":
            continue
        G = catalog_load(rec["name"]).group
        r = max_semiregular_order(G, b.elements, b.nodes)
        assert r.excluded == {}, rec["name"]
        assert r.nodes == searched.get(rec["name"], 0), rec["name"]
        h.update(json.dumps([rec["name"], r.nodes, r.optimal, r.witness.to_json_dict()]).encode())
    assert h.hexdigest() == "480ca03a0725ce388557115db5761ca8cca36e7c7596c638cdffff69f62c1c4e"


def test_psp43_40_semiregular_bound_certificate_regenerates():
    # the committed file is json.dumps(certificate, sort_keys=True) plus a newline
    path = Path(__file__).resolve().parent / "data" / "psp43_40_semiregular_bound.json"
    b = Budgets()
    G = catalog_load("PSp4(3):40").group
    cert = semiregular_bound_certificate(G, max_semiregular_order(G, b.elements, b.nodes))
    assert json.dumps(cert.to_json_dict(), sort_keys=True) + "\n" == path.read_text()
    validate_semiregular_bound(cert, G.degree)


def test_validate_semiregular_rejects_bad():
    w = SemiregularWitness("S4", [parse_cycles("(1,2)", 4)], 2, "catalog")
    with pytest.raises(WitnessError):
        validate_semiregular(w, 4)
    # on its first two points the generator is a transposition, so a closure
    # read at degree 2 sees a semiregular group of order 2
    w = SemiregularWitness("bad", [Permutation([1, 0, 2, 3])], 2, "catalog")
    for degree in (2, 6):
        with pytest.raises(WitnessError, match="has degree 4"):
            validate_semiregular(w, degree)


def test_validate_semiregular_caps_the_closure_at_the_degree(monkeypatch):
    # a semiregular group has at most n elements, so the closure of S_5's
    # generators stops at the sixth, whatever order the witness claims
    close = semireg.close_subgroup
    caps = []

    def recorded(gens, degree, cap):
        caps.append(cap)
        return close(gens, degree, cap)

    monkeypatch.setattr(semireg, "close_subgroup", recorded)
    w = SemiregularWitness("S5", [parse_cycles("(0,1)", 5), parse_cycles("(0,1,2,3,4)", 5)],
                           120, "catalog")
    with pytest.raises(WitnessError, match="has more than 5 elements, so it is not semiregular"):
        validate_semiregular(w, 5)
    assert caps == [5]


def test_lift_semiregular_doubled_action():
    # G = <(g,g) on two sheets, sheet swap>; blocks = sheet pairs {x, x+n}
    base = alt(5)
    n = base.degree
    doubled = []
    for g in base.generators:
        doubled.append(Permutation(list(g.images) + [n + i for i in g.images]))
    swap = Permutation([n + i for i in range(n)] + list(range(n)))
    G = PermGroup(doubled + [swap], name="A5 x C2 doubled")
    assert G.order() == 120
    system = BlockSystem([i % n for i in range(2 * n)])
    for g in G.generators:
        assert system.is_invariant_under(g)

    # lift a semiregular C5 from the block action (natural A5 on 5 points)
    five_cycle = parse_cycles("(0,1,2,3,4)", 5)
    w = lift_semiregular(G, system, [five_cycle])
    assert w.order == 10  # C5 x <swap>
    assert w.method == "lifted"
    # the greedy choice over the sorted preimage: the least element outside
    # the span so far, until the span is the whole preimage
    assert [list(g.images) for g in w.generators] == [
        [1, 2, 3, 4, 0, 6, 7, 8, 9, 5], [5, 6, 7, 8, 9, 0, 1, 2, 3, 4]]
    validate_semiregular(w, 10)


def test_lift_semiregular_kernel_case():
    base = alt(5)
    n = base.degree
    doubled = [Permutation(list(g.images) + [n + i for i in g.images]) for g in base.generators]
    swap = Permutation([n + i for i in range(n)] + list(range(n)))
    G = PermGroup(doubled + [swap])
    system = BlockSystem([i % n for i in range(2 * n)])
    w = lift_semiregular(G, system, [Permutation.identity(n)])
    assert w.order == 2  # the kernel <swap>
    validate_semiregular(w, 10)


def test_lift_semiregular_rejects_nonsemiregular_blocks():
    base = alt(5)
    n = base.degree
    doubled = [Permutation(list(g.images) + [n + i for i in g.images]) for g in base.generators]
    swap = Permutation([n + i for i in range(n)] + list(range(n)))
    G = PermGroup(doubled + [swap])
    system = BlockSystem([i % n for i in range(2 * n)])
    with pytest.raises(Exception):
        lift_semiregular(G, system, [parse_cycles("(0,1,2)", 5)])  # fixes 2 block pts


def test_lift_semiregular_singleton_blocks():
    G = cyclic(5)
    system = BlockSystem(list(range(5)))
    w = lift_semiregular(G, system, [G.generators[0]])
    assert w.order == 5


def test_product_action_fpf_trivial_cases():
    ident5 = Permutation.identity(5)
    a_id = Permutation.identity(2)
    assert not product_action_fpf([ident5, ident5], a_id)
    d = parse_cycles("(0,1,2,3,4)", 5)
    assert product_action_fpf([d, ident5], a_id)  # first coordinate never fixed
    swap = parse_cycles("(0,1)", 2)
    # cycle product d * d^-1 = id has fixed points
    assert not product_action_fpf([d, d ** -1], swap)


def test_product_action_fpf_brute_force():
    rng = random.Random(23)
    for _ in range(400):
        delta = rng.randrange(2, 6)
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
        big = product_action_perm(hs, a)
        assert fast == is_derangement(big)
        assert product_action_order(hs, a) == big.order()


def test_product_action_perm_matches_the_coordinate_definition():
    # point t of Delta^k has index sum t_j delta^(k-1-j); (h_1, ..., h_k)a
    # puts h_j[t_j] at coordinate a[j]
    rng = random.Random(26)
    for _ in range(200):
        delta = rng.randrange(1, 7)
        kappa = rng.randrange(1, 4)
        hs = [Permutation(rng.sample(range(delta), delta)) for _ in range(kappa)]
        a = Permutation(rng.sample(range(kappa), kappa))
        perm = product_action_perm(hs, a)
        assert perm.degree == delta ** kappa
        for index, t in enumerate(itertools.product(range(delta), repeat=kappa)):
            image = [0] * kappa
            for j, tj in enumerate(t):
                image[a.images[j]] = hs[j].images[tj]
            assert perm.images[index] == sum(
                x * delta ** (kappa - 1 - i) for i, x in enumerate(image))


def test_product_action_order_rejects_degree_mismatch():
    d = parse_cycles("(0,1,2)", 3)
    with pytest.raises(PermError):
        product_action_order([d, d, d], Permutation.identity(2))
    with pytest.raises(PermError):
        product_action_fpf([d], Permutation.identity(2))


def test_wreath_elusive_not_elusive_alt5():
    c2 = PermGroup([parse_cycles("(0,1)", 2)], name="C2")
    rep = wreath_elusive_check(alt(5), c2)
    assert rep.elusive is False
    assert rep.witness is not None and is_derangement(rep.witness)
    assert rep.witness.degree == 25
    assert rep.witness_order == 5


def test_wreath_elusive_check_raises_on_a_bad_witness(monkeypatch):
    # explicit raises, not asserts, so the checks also run under python -O
    c2 = PermGroup([parse_cycles("(0,1)", 2)], name="C2")
    monkeypatch.setattr(semireg, "product_action_fpf", lambda h_list, a: False)
    with pytest.raises(WitnessError):
        wreath_elusive_check(alt(5), c2)
    monkeypatch.undo()
    monkeypatch.setattr(semireg, "product_action_perm",
                        lambda h_list, a: Permutation.identity(25))
    with pytest.raises(WitnessError):
        wreath_elusive_check(alt(5), c2)
