import random
from fractions import Fraction

import pytest

from drg.catalog import catalog_index, catalog_load
from drg.graph import (
    DEFAULT_NODE_BUDGET,
    CertificateError,
    CliqueCertificate,
    CocliqueCertificate,
    are_adjacent,
    clique_coclique_audit,
    density_bounds,
    derangement_set,
    find_k_clique,
    greedy_clique,
    max_clique,
    max_intersecting_family,
    validate_clique,
    validate_coclique,
    _LazyAdjacency,
    _max_clique_search,
)
from drg.group import PermGroup
from drg.oracles import exhaustive_max_coclique
from drg.perm import Permutation, compose, inverse, is_derangement, parse_cycles


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


def test_derangement_set_s2_s3():
    d2 = derangement_set(sym(2))
    assert len(d2) == 1 and Permutation(d2[0]) == parse_cycles("(0,1)", 2)
    d3 = derangement_set(sym(3))
    assert len(d3) == 2  # exactly the two 3-cycles
    assert all(Permutation(t).order() == 3 for t in d3)


def test_derangement_set_closed_under_inverse():
    for G in (sym(4), alt(5), cyclic(6)):
        d = derangement_set(G)
        members = set(d)
        assert all(inverse(Permutation(t)).images in members for t in d)
        assert tuple(range(G.degree)) not in members


def test_derangement_set_nonempty_jordan():
    for G in (sym(2), sym(3), sym(4), alt(4), alt(5), cyclic(7)):
        assert len(derangement_set(G)) > 0


def test_are_adjacent_basics():
    g = parse_cycles("(0,1,2)", 3)
    assert not are_adjacent(g, g)
    ident = Permutation.identity(3)
    assert are_adjacent(ident, g) == is_derangement(g)
    rng = random.Random(1)
    for _ in range(50):
        images = list(range(5))
        rng.shuffle(images)
        a = Permutation(images)
        rng.shuffle(images)
        b = Permutation(images)
        assert are_adjacent(a, b) == are_adjacent(b, a)
        assert are_adjacent(a, b) == is_derangement(compose(a, inverse(b)))


def test_graph_is_regular_of_degree_d():
    # spot-check vertex-transitivity: every vertex has |D| neighbours
    G = sym(4)
    dset = derangement_set(G)
    elements = [Permutation(t) for t in G.element_images()]
    rng = random.Random(3)
    for _ in range(20):
        v = rng.choice(elements)
        deg = sum(1 for u in elements if u != v and are_adjacent(u, v))
        assert deg == len(dset)


def test_find_k_clique_jordan_and_triangle():
    for G in (sym(2), sym(3), sym(4), alt(4), alt(5), cyclic(5), cyclic(6)):
        r = find_k_clique(G, 2)
        assert r.status == "found" and r.certificate.size == 2
        if G.degree >= 3:
            r3 = find_k_clique(G, 3)
            assert r3.status == "found" and r3.certificate.size == 3


def test_find_k_clique_no_large_clique_in_c2():
    r = find_k_clique(sym(2), 3)
    assert r.status == "none"


def test_find_k_clique_alt5_deg6_size4():
    # A5 acting on 6 points; the derangement graph contains a 4-clique
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

    G = PermGroup([moebius(add1), moebius(neginv)], name="A5:6")
    assert G.order() == 60 and G.is_transitive()
    r = find_k_clique(G, 4)
    assert r.status == "found"
    validate_clique(r.certificate, G)


def test_find_k_clique_colour_bound_proves_none():
    # omega(A7:7) = 7, and the colour bound proves it near the root
    r = find_k_clique(catalog_load("A7:7").group, 8)
    assert r.status == "none" and r.certificate is None
    assert r.nodes < 100


@pytest.mark.parametrize("k", [2, 3])
def test_find_k_clique_certificate_has_exactly_k_vertices(k):
    G = catalog_load("PSL2(11):11").group
    # the search's first maximal clique is larger than k
    adj = _LazyAdjacency(derangement_set(G))
    best, _, _ = _max_clique_search(adj, DEFAULT_NODE_BUDGET, stop_at=k - 1)
    assert len(best) > k - 1
    r = find_k_clique(G, k)
    assert r.status == "found" and r.certificate.size == k
    validate_clique(r.certificate, G)


def test_max_clique_regular_group_is_whole_group():
    G = cyclic(5)
    r = max_clique(G)
    assert r.optimal and r.certificate.size == 5


def test_max_clique_sym3():
    r = max_clique(sym(3))
    assert r.optimal and r.certificate.size == 3


def test_max_clique_brute_force_agreement():
    # exhaustive check on tiny groups: compare against naive maximum search
    import itertools

    for G in (sym(3), cyclic(4), cyclic(6), alt(4)):
        elements = [Permutation(t) for t in G.element_images()]
        best = 1
        for size in range(2, len(elements) + 1):
            found = False
            for combo in itertools.combinations(elements, size):
                if all(
                    are_adjacent(a, b) for a, b in itertools.combinations(combo, 2)
                ):
                    found = True
                    break
            if found:
                best = size
            else:
                break
        r = max_clique(G)
        assert r.optimal and r.certificate.size == best


def test_max_intersecting_family_sym3():
    r = max_intersecting_family(sym(3))
    assert r.optimal
    assert r.certificate.size == 2  # = |G_omega|, the Cameron-Ku bound at n = 3


def test_max_intersecting_family_trivial():
    G = PermGroup([Permutation.identity(3)])
    r = max_intersecting_family(G)
    assert r.certificate.size == 1


def test_max_intersecting_family_at_least_stabilizer():
    for G in (sym(4), alt(5), cyclic(6)):
        r = max_intersecting_family(G)
        assert r.certificate.size >= G.stabilizer_order()


def test_clique_coclique_audit():
    G = sym(3)
    cl = max_clique(G).certificate
    co = max_intersecting_family(G).certificate
    assert clique_coclique_audit(cl, co, G)
    assert cl.size * co.size <= G.order()


def test_audit_rejects_duplicate_vertex():
    G = sym(3)
    d = Permutation(derangement_set(G)[0])
    bad = CliqueCertificate([Permutation.identity(3), d, d])
    with pytest.raises(CertificateError):
        validate_clique(bad, G)


def test_audit_rejects_nonmember():
    G = alt(4)
    odd = parse_cycles("(0,1)", 4)
    bad = CliqueCertificate([Permutation.identity(4), odd])
    with pytest.raises(CertificateError):
        validate_clique(bad, G)


def test_validate_coclique_rejects_disjoint_pair():
    g = parse_cycles("(0,1)(2,3)", 4)
    bad = CocliqueCertificate([Permutation.identity(4), g])
    with pytest.raises(CertificateError):
        validate_coclique(bad)


def test_density_bounds_walks_the_group_once(monkeypatch):
    G = catalog_load("A7:7").group
    walk = PermGroup.element_images
    calls = 0

    def counted(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        return walk(self, *args, **kwargs)

    monkeypatch.setattr(PermGroup, "element_images", counted)
    rep = density_bounds(G)
    assert rep.status == "ok"
    assert calls == 1


def _count_whole_group_walks(monkeypatch, forbid):
    """Patch ``element_images`` to count, or with ``forbid`` refuse, walks of the whole group."""
    walk = PermGroup.element_images
    whole = []

    def watched(self, *args, **kwargs):
        if not kwargs.get("derangements"):
            assert not forbid, "a walk of the whole group"
            whole.append(self)
        return walk(self, *args, **kwargs)

    monkeypatch.setattr(PermGroup, "element_images", watched)
    return walk, whole


@pytest.mark.parametrize("name", ["A7:7", "PSL2(11):12", "S6:6", "M11:12", "S5:10"])
def test_density_builds_no_fixer_once_a_clique_meets_the_degree(monkeypatch, name):
    G = catalog_load(name).group
    walk, _ = _count_whole_group_walks(monkeypatch, forbid=True)
    rep = density_bounds(G)
    assert rep.best_clique == G.degree
    assert rep.coclique_optimal and rep.rho_lower == rep.rho_upper == Fraction(1)
    # the identity, then the rest of G_0, sorted
    stabilizer = [t for t in walk(G) if t[0] == 0]
    assert [v.images for v in rep.coclique_certificate.vertices] == stabilizer


@pytest.mark.parametrize("name", ["A5:10", "A5:6", "A4:6"])
def test_intersecting_family_searches_below_the_degree(monkeypatch, name):
    G = catalog_load(name).group
    _, whole = _count_whole_group_walks(monkeypatch, forbid=False)
    rep = density_bounds(G)
    assert rep.best_clique < G.degree
    assert whole == [G]  # the fixers, for the search
    assert rep.coclique_optimal and rep.best_coclique == exhaustive_max_coclique(G)


def test_density_regular_group():
    rep = density_bounds(cyclic(5))
    assert rep.rho_lower == rep.rho_upper == Fraction(1)
    assert rep.best_clique == 5 and rep.best_coclique == 1


def test_density_sym3():
    rep = density_bounds(sym(3))
    assert rep.stabilizer_order == 2
    assert rep.rho_lower == Fraction(1)
    assert rep.rho_upper == Fraction(1)
    assert rep.status == "ok"


def test_density_closed_coclique_search_closes_rho():
    # A5:6 has omega = 4 < n, but its closed coclique search gives
    # alpha = 10 = |G_x|, so rho = 1 exactly, not the interval [1, 3/2]
    rep = density_bounds(catalog_load("A5:6").group)
    assert (rep.best_clique, rep.best_coclique, rep.stabilizer_order) == (4, 10, 10)
    assert rep.clique_optimal and rep.coclique_optimal
    assert rep.rho_lower == rep.rho_upper == Fraction(1)
    # an open coclique search leaves the clique's bound n / omega
    rep = density_bounds(catalog_load("A5:10").group, node_budget=1)
    assert not rep.coclique_optimal
    assert rep.rho_upper == Fraction(10, rep.best_clique)


def test_density_rho_upper_triangle():
    for G in (sym(3), sym(4), alt(5), cyclic(6)):
        rep = density_bounds(G)
        if G.degree >= 3:
            assert rep.rho_upper <= Fraction(G.degree, 3)


def _assert_mask_rows_match_definition(G, rows):
    # clique rows over the derangements: j adjacent to i by the definition
    ders = [Permutation(t) for t in derangement_set(G)]
    adj = _LazyAdjacency([p.images for p in ders])
    for i in range(min(rows, len(ders))):
        want = sum(1 << j for j, h in enumerate(ders) if j != i and are_adjacent(ders[i], h))
        assert adj.row(i) == want, (G.name, "clique", i)
    # complement rows over the non-identity elements that fix a point:
    # j != i agreeing with i somewhere
    fixers = [t for t in G.element_images()
              if t != tuple(range(G.degree)) and any(i == x for i, x in enumerate(t))]
    adj = _LazyAdjacency(fixers, complement=True)
    for i in range(min(rows, len(fixers))):
        want = sum(1 << j for j, h in enumerate(fixers)
                   if j != i and any(a == b for a, b in zip(fixers[i], h)))
        assert adj.row(i) == want, (G.name, "complement", i)


def test_mask_rows_match_definition_on_catalog():
    for rec in catalog_index():
        if rec["order"] <= 360:
            _assert_mask_rows_match_definition(catalog_load(rec["name"]).group, rec["order"])
    _assert_mask_rows_match_definition(catalog_load("M11:12").group, 50)


def test_density_m11_deg12_exact():
    G = catalog_load("M11:12").group
    rep = density_bounds(G)
    assert rep.status == "ok"
    assert rep.best_clique == 12 and rep.clique_optimal
    assert rep.best_coclique == 660 and rep.coclique_optimal
    assert rep.rho_lower == rep.rho_upper == Fraction(1)
    assert clique_coclique_audit(rep.clique_certificate, rep.coclique_certificate, G)


# -- the bitset validators against a pairwise reference -----------------------------


def _pairwise_reference(verts, G, clique, require_identity=True):
    """The definition scanned pair by pair, i < j: the reference verdict and message."""
    if not verts:
        raise CertificateError("empty certificate")
    seen = set()
    for v in verts:
        if v.degree != verts[0].degree:
            raise CertificateError(
                f"vertex {v!r} has degree {v.degree}, the first vertex {verts[0].degree}"
            )
        if v.images in seen:
            raise CertificateError(f"duplicate vertex {v!r}")
        seen.add(v.images)
        if G is not None and not G.membership(v):
            raise CertificateError(f"vertex {v!r} is not a group member")
    if clique and require_identity and tuple(range(verts[0].degree)) not in seen:
        raise CertificateError("clique certificate must contain the identity")
    for i, g in enumerate(verts):
        for h in verts[i + 1:]:
            if clique and not are_adjacent(g, h):
                raise CertificateError(f"vertices agree at a point: {g!r} vs {h!r}")
            if not clique and are_adjacent(g, h):
                raise CertificateError(f"non-intersecting pair in coclique: {g!r} vs {h!r}")


def _verdict(fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except CertificateError as exc:
        return str(exc)
    return None


def _random_vertex_lists(G, rng):
    """Seeded vertex lists over G, valid and broken, for both certificate kinds."""
    elements = [Permutation(t) for t in G.element_images()]
    identity = elements[0]
    stabilizer = [p for p in elements if p.images[0] == 0]
    lists = []
    for _ in range(6):
        # a stabilizer prefix is a coclique; a random clique grown greedily
        lists.append(stabilizer[:rng.randint(1, len(stabilizer))])
        pool = elements[1:]
        rng.shuffle(pool)
        clique = [identity]
        for p in pool:
            if all(are_adjacent(p, q) for q in clique):
                clique.append(p)
        lists.append(clique)
        lists.append(rng.sample(elements, rng.randint(1, min(8, len(elements)))))
    broken = []
    for verts in lists:
        stray = list(verts)
        stray.insert(rng.randint(0, len(stray)), rng.choice(elements))
        broken.append(stray)
        broken.append(verts + [rng.choice(verts)])  # a duplicate
        broken.append([v for v in verts if v != identity] or [elements[-1]])
        broken.append(verts[::-1])
        images = list(range(G.degree))
        for _ in range(20):  # a non-member, when G is not the full symmetric group
            rng.shuffle(images)
            p = Permutation(images)
            if not G.membership(p):
                at = rng.randint(0, len(verts))
                broken.append(verts[:at] + [p] + verts[at:])
                break
    return lists + broken


def _kind(message):
    for kind in ("duplicate", "member", "identity", "agree", "non-intersecting"):
        if message is not None and kind in message:
            return kind
    return message


def test_validators_match_pairwise_reference_on_catalog():
    rng = random.Random(20240607)
    seen = set()
    for rec in catalog_index():
        if rec["order"] > 360:
            continue
        G = catalog_load(rec["name"]).group
        for verts in _random_vertex_lists(G, rng):
            for group in (None, G):
                for require_identity in (True, False):
                    want = _verdict(_pairwise_reference, verts, group, True, require_identity)
                    got = _verdict(validate_clique, CliqueCertificate(verts), group,
                                   require_identity=require_identity)
                    assert got == want, (rec["name"], "clique", verts)
                    seen.add(_kind(want))
                want = _verdict(_pairwise_reference, verts, group, False)
                got = _verdict(validate_coclique, CocliqueCertificate(verts), group)
                assert got == want, (rec["name"], "coclique", verts)
                seen.add(_kind(want))
    # the inputs reach every verdict the validators can give on one degree
    assert seen == {None, "duplicate", "member", "identity", "agree", "non-intersecting"}


def test_validators_reject_mixed_degree():
    a, b = Permutation([0, 1, 2]), Permutation([1, 2, 0, 4, 3])
    with pytest.raises(CertificateError, match="has degree 5, the first vertex 3"):
        validate_clique(CliqueCertificate([a, b]))
    with pytest.raises(CertificateError, match="has degree 5, the first vertex 3"):
        validate_coclique(CocliqueCertificate([a, Permutation([0, 2, 1, 4, 3])]))


def test_validators_reject_a_group_of_another_degree():
    G = catalog_load("S3:3").group
    v = Permutation([1, 0, 3, 2])
    with pytest.raises(CertificateError, match="certificate degree 4 differs from the group's 3"):
        validate_clique(CliqueCertificate([v]), G, require_identity=False)
    with pytest.raises(CertificateError, match="certificate degree 4 differs from the group's 3"):
        validate_coclique(CocliqueCertificate([v]), G)


def test_validate_coclique_accepts_the_stabilizer_of_another_point():
    G = catalog_load("A7:7").group
    for x in (3, 6):
        family = [Permutation(t) for t in G.element_images() if t[x] == x]
        validate_coclique(CocliqueCertificate(family), G)


def test_validate_coclique_a8_stabilizer_family():
    G = catalog_load("A8:8").group
    family = [Permutation(t) for t in sorted(G.iter_images()) if t[0] == 0]
    assert len(family) == 2520
    validate_coclique(CocliqueCertificate(family))
    # a derangement in place of the identity: its first non-intersecting partner
    d = next(Permutation(t) for t in G.iter_images() if all(i != x for i, x in enumerate(t)))
    j = next(j for j, v in enumerate(family) if j and are_adjacent(d, v))
    assert sum(are_adjacent(d, v) for v in family[1:]) > 1  # the lowest is not the only one
    with pytest.raises(CertificateError) as exc:
        validate_coclique(CocliqueCertificate([d] + family[1:]))
    assert str(exc.value) == f"non-intersecting pair in coclique: {d!r} vs {family[j]!r}"


# (size, optimal, nodes) of max_clique, then of max_intersecting_family given
# that clique's size: a change in the engine's visiting order moves them. The
# greedy warm start reaches the degree on S6:6, A7:7 and A8:8, so their
# search opens its root alone.
@pytest.mark.parametrize("name, clique, family", [
    ("A5:6", (4, True, 6), (10, True, 12)),
    ("S6:6", (6, True, 1), (120, True, 1)),
    ("A7:7", (7, True, 1), (360, True, 1)),
    ("PSL2(11):12", (12, True, 11), (55, True, 1)),
    ("A8:8", (8, True, 1), (2520, True, 1)),
])
def test_clique_engine_node_counts_are_pinned(name, clique, family):
    G = catalog_load(name).group
    cl = max_clique(G)
    assert (cl.certificate.size, cl.optimal, cl.nodes) == clique
    co = max_intersecting_family(G, clique_size_hint=cl.certificate.size)
    assert (co.certificate.size, co.optimal, co.nodes) == family


# (size, closed, nodes) of the engine from an empty start, with no ceiling:
# the visiting order on the groups where max_clique's warm start skips it
@pytest.mark.parametrize("name, expected", [
    ("S6:6", (5, True, 5)),
    ("A7:7", (6, True, 6)),
    ("A8:8", (7, True, 7)),
])
def test_clique_engine_cold_node_counts_are_pinned(name, expected):
    adj = _LazyAdjacency(derangement_set(catalog_load(name).group))
    best, closed, nodes = _max_clique_search(adj, DEFAULT_NODE_BUDGET)
    assert (len(best), closed, nodes) == expected


def test_max_clique_at_the_degree_builds_no_mask_or_row(monkeypatch):
    built = []
    init = _LazyAdjacency.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(_LazyAdjacency, "__init__", recorded)
    G = catalog_load("A7:7").group
    r = max_clique(G)
    assert r.optimal and r.certificate.size == 7 and r.nodes == 1
    (adj,) = built
    assert "masks" not in vars(adj) and adj._rows == {}


def test_max_clique_searches_on_where_the_greedy_falls_short():
    G = catalog_load("PSL2(11):12").group
    images = derangement_set(G)
    assert len(greedy_clique(images, G.degree - 1)) < G.degree - 1
    r = max_clique(G)
    assert r.optimal and r.certificate.size == 12
    validate_clique(r.certificate, G)


def test_greedy_clique_is_first_fit():
    # the pairwise definition, taken in order, against the flag table
    images = derangement_set(catalog_load("A5:6").group)
    want = []
    for t in images:
        if all(are_adjacent(Permutation(t), Permutation(q)) for q in want):
            want.append(t)
    assert greedy_clique(iter(images), 5) == want
    stream = iter(images)
    assert greedy_clique(stream, 2) == want[:2]
    assert next(stream) == images[images.index(want[1]) + 1]  # stops at the size
    assert greedy_clique(images, 0) == []


@pytest.mark.parametrize("name, expected", [
    ("A5:6", [("found", 3), ("none", 6)]),
    ("PSU3(3):36", [("found", 13), ("found", 13)]),
])
def test_find_k_clique_node_counts_are_pinned(name, expected):
    G = catalog_load(name).group
    assert [(r.status, r.nodes) for r in (find_k_clique(G, k, 2000) for k in (4, 5))] == expected


def test_clique_engine_budget_exits_are_pinned():
    # the node that breaks the budget counts, and the best so far is returned
    cl = max_clique(catalog_load("PSU3(3):36").group, 500)
    assert (cl.certificate.size, cl.optimal, cl.nodes) == (16, False, 501)
    co = max_intersecting_family(catalog_load("A5:6").group, 5)
    assert (co.certificate.size, co.optimal, co.nodes) == (10, False, 6)
