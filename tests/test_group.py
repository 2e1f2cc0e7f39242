import gc
import itertools
import random
import tracemalloc

import pytest

from drg.catalog import catalog_index, catalog_load
from drg import group
from drg.group import (
    BlockSystem,
    BudgetError,
    PermGroup,
    block_image,
    blocks_and_primitivity,
    close_subgroup,
    coset_action,
    group_from_generators,
    reduce_generators,
    trivial_group,
)
from drg.perm import Permutation, PermError, compose, has_fixed_point, parse_cycles


def cyclic(n):
    return PermGroup([parse_cycles(f"({','.join(map(str, range(n)))})", n)])


def sym(n):
    return PermGroup([parse_cycles("(0,1)", n), parse_cycles(f"({','.join(map(str, range(n)))})", n)])


def alt(n):
    gens = [parse_cycles("(0,1,2)", n)]
    if n % 2:
        gens.append(parse_cycles(f"({','.join(map(str, range(n)))})", n))
    else:
        gens.append(parse_cycles(f"({','.join(map(str, range(1, n)))})", n))
    return PermGroup(gens)


def brute_closure(gens, degree):
    elems = close_subgroup(gens, degree, 10 ** 6)
    assert elems is not None
    return elems


def test_trivial_group():
    G = trivial_group(4)
    assert G.order() == 1
    assert list(G.elements()) == [Permutation.identity(4)]


def test_symmetric_orders():
    import math

    for n in range(2, 7):
        assert sym(n).order() == math.factorial(n)
        assert alt(n if n > 2 else 3).order() >= 1


def test_alternating_orders():
    import math

    for n in range(3, 8):
        assert alt(n).order() == math.factorial(n) // 2


def test_order_matches_brute_force_closure():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randrange(2, 7)
        gens = []
        for _ in range(rng.randrange(1, 3)):
            images = list(range(n))
            rng.shuffle(images)
            gens.append(Permutation(images))
        G = PermGroup(gens)
        assert G.order() == len(brute_closure(gens, n))


def test_close_subgroup_rejects_generator_of_another_degree():
    with pytest.raises(PermError):
        close_subgroup([Permutation([1, 0, 2, 3])], 2, 10)
    with pytest.raises(PermError):
        close_subgroup([parse_cycles("(0,1)", 3), Permutation([1, 0, 2, 3])], 3, 10)


def test_point_stabilizer_gens_generate_the_stabilizer():
    for G in (sym(5), alt(6), cyclic(6), PermGroup([parse_cycles("(0,1)", 4)])):
        for x in range(G.degree):
            gens = G.point_stabilizer_gens(x)
            assert all(g.images[x] == x for g in gens)
            assert PermGroup(gens, G.degree).order() == G.order() // len(G.orbit(x))


def test_membership():
    G = alt(5)
    assert G.membership(Permutation.identity(5))
    assert not G.membership(parse_cycles("(0,1)", 5))  # odd
    assert G.membership(parse_cycles("(0,1,2)", 5))
    rng = random.Random(9)
    for _ in range(20):
        p = Permutation.identity(5)
        for _ in range(20):
            p = compose(p, G.generators[rng.randrange(len(G.generators))])
        assert G.membership(p)


def test_membership_consistent_with_enumeration():
    G = sym(4)
    elems = set(G.element_images())
    import itertools

    for images in itertools.permutations(range(4)):
        assert G.membership(Permutation(images)) == (images in elems)


def test_elements_count_and_uniqueness():
    for G, expect in ((sym(5), 120), (alt(5), 60), (sym(4), 24), (cyclic(6), 6)):
        elems = list(G.elements())
        assert len(elems) == expect
        assert len({e.images for e in elems}) == expect
        assert all(G.membership(e) for e in elems)


def test_elements_budget():
    G = sym(6)
    with pytest.raises(BudgetError):
        list(G.elements(budget=100))


def _random_subgroup(rng, n):
    """A subgroup of S_n on one to three random generators, each moving a random subset."""
    gens = []
    for _ in range(rng.randrange(1, 4)):
        support = rng.sample(range(n), rng.randrange(2, n + 1))
        images = list(range(n))
        for x, y in zip(support, rng.sample(support, len(support))):
            images[x] = y
        gens.append(Permutation(images))
    return PermGroup(gens, n)


def _derangement_walk_cases():
    """The catalog to order 25,920, 150 seeded random subgroups of S_n for n <= 8,
    C_360, D_360, S_2 and the trivial group."""
    for rec in catalog_index():
        if rec["order"] <= 25_920:
            yield rec["name"], catalog_load(rec["name"]).group
    rng = random.Random(30)
    for i in range(150):
        yield f"random {i}", _random_subgroup(rng, rng.randrange(2, 9))
    n = 360
    yield "C360", cyclic(n)
    yield "D360", PermGroup([[(i + 1) % n for i in range(n)], [-i % n for i in range(n)]])
    yield "S2", sym(2)
    yield "trivial", trivial_group(3)


def _assert_derangement_walk_matches_the_filter(groups):
    for name, G in groups:
        want = [t for t in G.element_images() if not has_fixed_point(t)]
        assert G.element_images(derangements=True) == want, name


def test_derangement_walk_matches_the_filtered_elements():
    _assert_derangement_walk_matches_the_filter(_derangement_walk_cases())


def test_derangement_walk_matches_the_filter_when_the_stabilizer_walk_is_not_listed(monkeypatch):
    # with no walk listed, every coset walks G_{a,b} again off the chain
    monkeypatch.setattr(group, "_LISTED_WALK_ENTRIES", 0)
    _assert_derangement_walk_matches_the_filter(_derangement_walk_cases())


def test_derangement_walk_budget():
    with pytest.raises(BudgetError):
        sym(6).element_images(budget=100, derangements=True)


def test_orbit():
    G = trivial_group(5)
    assert G.orbit(3) == {3}
    C = cyclic(5)
    assert C.orbit(0) == {0, 1, 2, 3, 4}
    with pytest.raises(PermError):
        C.orbit(9)


def test_orbit_sizes_partition_degree():
    g = parse_cycles("(0,1)(2,3,4)", 7)
    G = PermGroup([g])
    sizes = sorted(len(o) for o in G.orbits())
    assert sum(sizes) == 7
    assert sizes == [1, 1, 2, 3]


def test_orbit_stabilizer():
    for G in (cyclic(6), sym(5), alt(6)):
        assert G.is_transitive()
        assert G.stabilizer_order() * G.degree == G.order()


def test_blocks_cyclic4():
    C4 = cyclic(4)
    systems, primitive = blocks_and_primitivity(C4)
    assert not primitive
    wanted = BlockSystem([0, 1, 0, 1])  # {{0,2},{1,3}}
    assert wanted in systems
    for sys_ in systems:
        for g in C4.generators:
            assert sys_.is_invariant_under(g)


def all_block_systems(G):
    """Every nontrivial block system of G, by brute force over the
    equal-size partitions (small degrees only)."""
    n = G.degree
    found = []
    for size in range(2, n):
        if n % size:
            continue
        # partitions of 0..n-1 into blocks of given size, block containing 0 first
        def partitions(remaining):
            if not remaining:
                yield []
                return
            first = min(remaining)
            for rest in itertools.combinations(sorted(remaining - {first}), size - 1):
                blk = {first, *rest}
                for tail in partitions(remaining - blk):
                    yield [blk] + tail

        for part in partitions(set(range(n))):
            block_of = [0] * n
            for i, blk in enumerate(part):
                for x in blk:
                    block_of[x] = i
            sys_ = BlockSystem(block_of)
            if all(sys_.is_invariant_under(g) for g in G.generators):
                found.append(sys_)
    return found


def test_blocks_brute_force_small():
    # compare against brute force over all equal-size partitions for degree <= 6
    for G in (cyclic(4), cyclic(6), sym(4), alt(5), PermGroup([parse_cycles("(0,1,2,3)", 4), parse_cycles("(1,3)", 4)])):
        brute = all_block_systems(G)
        systems, primitive = blocks_and_primitivity(G)
        assert primitive == (not brute)
        for sys_ in systems:
            assert sys_ in brute


def minimal_block_system(G, seed_pair):
    """Finest G-invariant partition merging the two seed points (union-find).

    The reference for ``blocks_and_primitivity``, which reads the blocks off
    the chain's first level instead.
    """
    n = G.degree
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx == ry:
            return False
        if rx > ry:
            rx, ry = ry, rx
        parent[ry] = rx
        return True

    queue = [seed_pair]
    union(*seed_pair)
    while queue:
        x, y = queue.pop()
        for g in G.generators:
            gx, gy = g.images[x], g.images[y]
            if union(gx, gy):
                queue.append((gx, gy))
    return BlockSystem([find(x) for x in range(n)])


def _full_block_scan(G):
    """The systems B(0, a) for every a = 1 .. n-1, first occurrences in order."""
    systems = []
    for a in range(1, G.degree):
        sys_a = minimal_block_system(G, (0, a))
        if 1 < sys_a.num_blocks < G.degree and sys_a not in systems:
            systems.append(sys_a)
    return systems


def _random_imprimitive_group(rng, k, m):
    """A transitive subgroup of S_k wr S_m on k * m points, relabelled at random."""
    n = k * m
    relabel = list(range(n))
    rng.shuffle(relabel)
    while True:
        gens = []
        for _ in range(rng.randrange(1, 4)):
            top = list(range(m))
            rng.shuffle(top)
            images = [0] * n
            for b in range(m):
                inner = list(range(k))
                rng.shuffle(inner)
                for i in range(k):
                    images[b * k + i] = top[b] * k + inner[i]
            # the relabelled generator x -> relabel[images[relabel^-1[x]]]
            moved = [0] * n
            for x in range(n):
                moved[relabel[x]] = relabel[images[x]]
            gens.append(Permutation(moved))
        G = PermGroup(gens, n)
        if G.is_transitive():
            return G


def test_block_systems_from_stabilizer_orbit_seeds_match_the_full_scan():
    # one seed per G_0-orbit gives the systems of all n - 1 seeds, in order
    for rec in catalog_index():
        G = catalog_load(rec["name"]).group
        if G.is_transitive():
            assert blocks_and_primitivity(G)[0] == _full_block_scan(G), rec["name"]
    rng = random.Random(23)
    for _ in range(60):
        k, m = rng.choice([(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (2, 6), (3, 4), (4, 4)])
        G = _random_imprimitive_group(rng, k, m)
        systems, primitive = blocks_and_primitivity(G)
        assert systems == _full_block_scan(G), [g.images for g in G.generators]
        if G.degree <= 9:
            brute = all_block_systems(G)
            assert brute and not primitive
            assert all(sys_ in brute for sys_ in systems)
    # the blocks of C_n and D_n holding 0 are the subgroups of Z_n, so one
    # system per divisor d of n with 1 < d < n: 360 and 720 have 24 and 30
    # divisors. C_n's stabilizer of 0 is trivial, D_n's has order 2: n - 1
    # and n / 2 seeds
    for n in (360, 720):
        rotation, reflection = [(x + 1) % n for x in range(n)], [-x % n for x in range(n)]
        for G in (PermGroup([rotation], n), PermGroup([rotation, reflection], n)):
            systems, primitive = blocks_and_primitivity(G)
            assert systems == _full_block_scan(G), (n, len(G.generators))
            assert len(systems) == sum(n % d == 0 for d in range(2, n)) and not primitive


def test_alt5_primitive():
    _, primitive = blocks_and_primitivity(alt(5))
    assert primitive


def test_intransitive_blocks_error():
    G = PermGroup([parse_cycles("(0,1)", 4)])
    with pytest.raises(PermError):
        blocks_and_primitivity(G)


def test_coset_action_whole_group():
    G = sym(4)
    act = coset_action(G, list(G.generators))
    assert act.degree == 1


def test_coset_action_point_stabilizer():
    # stabilizer of 0 in S4 is S3 on {1,2,3}; coset action has degree 4
    G = sym(4)
    H = [parse_cycles("(1,2)", 4), parse_cycles("(1,2,3)", 4)]
    act = coset_action(G, H)
    assert act.degree == 4
    assert act.group.is_transitive()
    assert act.group.order() * act.subgroup_order % G.order() == 0
    assert act.degree * act.subgroup_order == G.order()


def test_coset_action_not_subgroup():
    G = alt(5)
    with pytest.raises(PermError):
        coset_action(G, [parse_cycles("(0,1)", 5)])


def test_coset_action_budget():
    G = sym(6)
    H = [Permutation.identity(6)]
    with pytest.raises(BudgetError):
        coset_action(G, H, degree_budget=100)


def test_coset_action_homomorphism():
    G = sym(4)
    H = [parse_cycles("(1,2)", 4), parse_cycles("(1,2,3)", 4)]
    act = coset_action(G, H)
    rng = random.Random(2)
    for _ in range(20):
        p = G.random_element(rng)
        q = G.random_element(rng)
        assert act.act(compose(p, q)) == compose(act.act(p), act.act(q))


def test_coset_key_is_least_element_of_coset():
    m11 = catalog_load("M11:11")
    psp = catalog_load("PSp4(3):40")
    cases = [(m11, sub) for sub in m11.subgroups] + [(psp, "index36_stabilizer")]
    rng = random.Random(36)
    for gf, sub in cases:
        G, H_gens = gf.group, gf.subgroups[sub]
        act = coset_action(G, H_gens)
        H = [h.images for h in brute_closure(H_gens, G.degree)]
        for _ in range(200):
            rep = G.random_element(rng).images
            brute = min(tuple(rep[i] for i in h) for h in H)
            assert act._coset_key(rep) == brute, (gf.name, sub, rep)


def test_coset_action_trivial_subgroup_is_regular():
    G = sym(4)
    act = coset_action(G, [Permutation.identity(4)])
    assert act.degree == G.order() == 24
    assert act.group.order() == 24
    rep = G.random_element(random.Random(5)).images
    assert act._coset_key(rep) == rep
    for g in act.group.elements():
        assert g.is_identity() or all(i != j for i, j in enumerate(g.images))


def test_coset_action_reproduces_shipped_psp43_degree36():
    psp = catalog_load("PSp4(3):40")
    act = coset_action(psp.group, psp.subgroups["index36_stabilizer"])
    assert act.group.generators == catalog_load("PSp4(3):36").group.generators


def test_block_image():
    C4 = cyclic(4)
    sys_ = BlockSystem([0, 1, 0, 1])
    g = C4.generators[0]
    img = block_image(g, sys_)
    assert img == parse_cycles("(0,1)", 2)
    with pytest.raises(PermError):
        block_image(parse_cycles("(0,1)", 4), sys_)


def test_group_from_generators_errors():
    with pytest.raises(PermError):
        group_from_generators([])
    with pytest.raises(PermError):
        group_from_generators([Permutation.identity(3), Permutation.identity(4)])


def test_membership_matches_the_closure_on_small_catalog_groups():
    # members: the whole closure; non-members: each generator times the first
    # transposition outside G, and a sample of S_n checked against the closure
    rng = random.Random(36)
    for rec in catalog_index():
        if rec["order"] > 720:
            continue
        G = catalog_load(rec["name"]).group
        n = G.degree
        members = close_subgroup(G.generators, n, rec["order"])
        assert len(members) == rec["order"], rec["name"]
        assert all(map(G.membership, members)), rec["name"]
        images = {p.images for p in members}
        swaps = (Permutation.from_cycles([(i, j)], n) for i in range(n) for j in range(i + 1, n))
        tau = next((t for t in swaps if t.images not in images), None)
        if tau is not None:
            assert not any(G.membership(compose(g, tau)) for g in G.generators), rec["name"]
        for _ in range(50):
            p = Permutation(rng.sample(range(n), n))
            assert G.membership(p) == (p.images in images), rec["name"]


def test_chain_of_a_large_regular_group_keeps_one_table_per_level():
    # C_800's one level holds 800 transversal elements of 800 points: 5.26 MB
    # measured, and 10.45 MB when each level also stored every inverse
    gc.collect()
    tracemalloc.start()
    try:
        G = cyclic(800)
        assert G.order() == 800
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 7_000_000, kept


def _reduce_generators_reference(gens, degree, target_order):
    """The greedy reduction built from scratch at each step: same choices, more chains."""
    chosen = []
    for g in gens:
        if g.is_identity() or (chosen and PermGroup(chosen, degree).membership(g)):
            continue
        chosen.append(g)
        if PermGroup(chosen, degree).order() == target_order:
            return chosen
    return [Permutation.identity(degree)]


def test_reduce_generators_builds_one_chain_per_kept_generator(monkeypatch):
    psu = catalog_load("PSU3(3):36").group
    psp = catalog_load("PSp4(3):40").group
    rng = random.Random(5)
    s5 = list(sym(5).elements())
    cases = [(list(psp.generators), 40, psp.order()),  # 9 generators, 5 kept
             (rng.sample(s5, 12), 5, 120), ([Permutation.identity(4)] * 3, 4, 1)]
    expected = [_reduce_generators_reference(*case) for case in cases]
    psu.order()
    built = []  # each group whose chain gets built
    build = PermGroup._build_chain

    def counted(group):
        if group._chain is None:
            built.append(group)
        return build(group)

    monkeypatch.setattr(PermGroup, "_build_chain", counted)
    stabilizer_gens = psu.point_stabilizer_gens(0)
    assert len(built) == len(stabilizer_gens) == 2
    for case, want in zip(cases, expected):
        built.clear()
        got = reduce_generators(*case)
        assert got == want
        assert len(built) == (0 if want[0].is_identity() else len(got))
    assert len(expected[0]) == 5
