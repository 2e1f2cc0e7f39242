"""Recorded values for the named witness groups, plus budget-state contracts."""

import random

import pytest

from drg.catalog import catalog_index, catalog_load
from drg.graph import derangement_set, find_k_clique, max_clique
from drg.group import close_subgroup, coset_action
from drg.numth import is_prime
from drg.perm import Permutation, compose, is_derangement
from drg.semireg import (
    is_elusive,
    is_semiregular_element,
    semiregular_primes,
    wreath_elusive_check,
)


def test_m11_semiregular_primes():
    m11_11 = catalog_load("M11:11").group
    assert m11_11.stabilizer_order() == 720
    assert semiregular_primes(m11_11) == {11}
    m11_12 = catalog_load("M11:12").group
    assert m11_12.stabilizer_order() == 660
    assert semiregular_primes(m11_12) == set()


def test_m11_deg11_not_elusive():
    G = catalog_load("M11:11").group
    rep = is_elusive(G)
    assert rep.elusive is False
    assert rep.witness_order == 11  # an 11-cycle witness


def test_is_elusive_witness_is_least_prime_order_derangement():
    for rec in catalog_index():
        if rec["order"] > 20160:
            continue
        G = catalog_load(rec["name"]).group
        least = min((p for p in G.elements() if is_derangement(p) and is_prime(p.order())),
                    default=None)
        rep = is_elusive(G)
        assert rep.witness == least, rec["name"]
        assert rep.elusive is (least is None), rec["name"]


def test_m11_membership_closure():
    G = catalog_load("M11:11").group
    rng = random.Random(6)
    p = Permutation.identity(11)
    for _ in range(20):
        p = compose(p, G.generators[rng.randrange(len(G.generators))])
    assert G.membership(p)
    assert G.membership(Permutation.identity(11))


def test_m11_coset_degrees():
    gf = catalog_load("M11:11")
    for sub, degree in (("11:5", 144), ("6:2", 660), ("A5a", 132), ("A5b", 132),
                        ("PSL2(11)", 12), ("M9:2", 55)):
        act = coset_action(gf.group, gf.subgroups[sub])
        assert act.degree == degree, sub
        assert act.degree * act.subgroup_order == gf.group.order()
        assert act.group.is_transitive()


def test_coset_action_whole_group_degree_one():
    G = catalog_load("A5:6").group
    act = coset_action(G, list(G.generators))
    assert act.degree == 1


def test_m11_12_derangement_count():
    G = catalog_load("M11:12").group
    dset = derangement_set(G)
    assert len(dset) > 0
    fixers = sum(1 for p in G.elements() if not is_derangement(p))
    assert len(dset) + fixers == G.order()
    # frozen from the enumeration filter; consistent with elusiveness: every
    # derangement has composite order (the 990 order-4 and 1980 order-8 elements)
    assert len(dset) == 2970
    assert all(Permutation(t).order() in (4, 8) for t in dset)


def test_a5a_a5b_not_conjugate_in_psl():
    """The two A5 classes stay distinct: no PSL2(11) element conjugates one to the other."""
    gf = catalog_load("M11:11")
    psl = close_subgroup(gf.subgroups["PSL2(11)"], 11, 700)
    a5a = {p.images for p in close_subgroup(gf.subgroups["A5a"], 11, 61)}
    a5b = {p.images for p in close_subgroup(gf.subgroups["A5b"], 11, 61)}
    from drg.perm import inverse

    for g in psl:
        gi = inverse(g)
        conj = {compose(compose(gi, Permutation(s)), g).images for s in a5a}
        assert conj != a5b


def test_find_k_clique_budget_exhaustion_is_unknown():
    G = catalog_load("A5:6").group
    r = find_k_clique(G, 4, node_budget=1)
    assert r.status == "unknown"
    assert r.certificate is None


def test_max_clique_budget_lowers_flag():
    G = catalog_load("A5:6").group
    r = max_clique(G, node_budget=3)
    assert not r.optimal
    assert r.certificate.size >= 1
    # S6:6's greedy warm start meets the ceiling omega <= n before any budget
    r = max_clique(catalog_load("S6:6").group, node_budget=3)
    assert r.optimal and r.certificate.size == 6


def test_is_elusive_over_budget_unknown():
    from drg.constructions import natural_alt

    G = natural_alt(10)
    rep = is_elusive(G, element_budget=1000)
    assert rep.elusive is None
    assert rep.note


def test_wreath_elusive_unknown_when_base_undecidable():
    from drg.constructions import cyclic_group, natural_alt

    rep = wreath_elusive_check(natural_alt(10), cyclic_group(2), element_budget=1000)
    assert rep.elusive is None


def test_semiregular_prime_property_whole_corpus():
    """For p | |G| coprime to |G_w|, some order-p element exists and is semiregular."""
    for rec in catalog_index():
        G = catalog_load(rec["name"]).group
        primes = semiregular_primes(G)
        if not primes:
            continue
        for p in sorted(primes):
            witness = None
            for g in G.elements():
                if g.order() % p == 0:
                    witness = g ** (g.order() // p)
                    break
            assert witness is not None, (rec["name"], p)
            assert witness.order() == p
            assert is_derangement(witness)
            assert is_semiregular_element(witness)


def test_derangement_graph_regularity_spot_check():
    """Vertex-transitivity: the derangement count is the common vertex degree."""
    from drg.graph import are_adjacent

    rng = random.Random(12)
    for name in ("A5:6", "S4:6", "F20:5"):
        G = catalog_load(name).group
        dset = derangement_set(G)
        elements = [Permutation(t) for t in G.element_images()]
        for _ in range(50):
            v = rng.choice(elements)
            degree = sum(1 for u in elements if u != v and are_adjacent(u, v))
            assert degree == len(dset)
