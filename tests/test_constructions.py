import random
from math import comb, factorial

import pytest

from drg.constructions import (
    WreathSpec,
    alt_subset_semiregular_witness,
    cyclic_group,
    dihedral_group,
    matrix_has_eigenvalue_in_base,
    natural_alt,
    natural_sym,
    ppd_block_witness,
    product_clique,
    projective_line_psl2,
    projective_perm,
    projective_points,
    rank_one_unipotent_family,
    singer_minus,
    split_symplectic_form,
    subset_image,
    subsets_action,
    symplectic_unipotent_family,
    wreath_expected_order,
    wreath_product_action,
)
from drg.fields import GF, Matrix, preserves_quadratic, preserves_symplectic
from drg.graph import validate_clique
from drg.group import PermGroup, blocks_and_primitivity
from drg.perm import Permutation, is_derangement, parse_cycles
from drg.semireg import is_semiregular_element, is_semiregular_subgroup


def test_elementary_families():
    assert cyclic_group(6).order() == 6
    assert dihedral_group(5).order() == 10
    for m in range(2, 8):
        assert natural_sym(m).order() == factorial(m)
    for m in range(3, 9):
        assert natural_alt(m).order() == factorial(m) // 2


def test_psl2_small():
    G5 = projective_line_psl2(5)
    assert G5.order() == 60 and G5.degree == 6 and G5.is_transitive()
    G7 = projective_line_psl2(7)
    assert G7.order() == 168 and G7.degree == 8
    G11 = projective_line_psl2(11)
    assert G11.order() == 660 and G11.degree == 12
    assert blocks_and_primitivity(G11)[1]


def test_subsets_action_5_2():
    G = subsets_action(5, 2)
    assert G.degree == 10
    assert G.order() == 60
    assert G.is_transitive()
    assert G.stabilizer_order() == 6


def test_subsets_action_9_2():
    G = subsets_action(9, 2)
    assert G.degree == 36
    assert G.order() == factorial(9) // 2


def test_subsets_action_natural():
    G = subsets_action(7, 1)
    assert G.degree == 7
    assert G.order() == factorial(7) // 2


def test_subset_image_is_homomorphism():
    rng = random.Random(3)
    m, ell = 6, 2
    for _ in range(20):
        imgs1 = list(range(m))
        rng.shuffle(imgs1)
        imgs2 = list(range(m))
        rng.shuffle(imgs2)
        g, h = Permutation(imgs1), Permutation(imgs2)
        from drg.perm import compose

        assert subset_image(compose(g, h), m, ell) == compose(
            subset_image(g, m, ell), subset_image(h, m, ell)
        )


def test_alt_subset_witness_9_2():
    # order-3 witness with 9 mod 3 = 0 fixed points, plus the 9-cycle of order 9
    w3 = alt_subset_semiregular_witness(9, 2, 3)
    assert w3.order() == 3
    assert is_semiregular_element(w3)
    nine_cycle = Permutation([(i + 1) % 9 for i in range(9)])
    img = subset_image(nine_cycle, 9, 2)
    assert img.order() == 9
    assert is_semiregular_element(img)
    assert is_semiregular_subgroup([img], 36)


def test_alt_subset_witness_10_3():
    w = alt_subset_semiregular_witness(10, 3, 5)
    assert w.degree == comb(10, 3)
    assert w.order() == 5
    assert is_derangement(w)
    assert is_semiregular_element(w)


def test_alt_subset_witness_7_2():
    w = alt_subset_semiregular_witness(7, 2, 7)
    assert w.order() == 7
    assert is_semiregular_element(w)
    assert w.degree == 21


def test_alt_subset_witness_rejects():
    with pytest.raises(Exception):
        alt_subset_semiregular_witness(9, 2, 2)  # p <= ell
    with pytest.raises(Exception):
        alt_subset_semiregular_witness(11, 2, 3)  # 3 does not divide 11*10... it does not
    with pytest.raises(Exception):
        alt_subset_semiregular_witness(8, 2, 5)  # 8 mod 5 = 3 > ell - 1


def test_wreath_product_small():
    c2 = cyclic_group(2)
    spec = WreathSpec(c2, c2)
    W = wreath_product_action(spec)
    assert W.degree == 4
    assert W.order() == 8 == wreath_expected_order(spec)


def test_wreath_product_a5_c2():
    a5 = projective_line_psl2(5)  # A5 on 6 points
    c2 = cyclic_group(2)
    spec = WreathSpec(a5, c2)
    W = wreath_product_action(spec)
    assert W.degree == 36
    assert W.order() == 60 * 60 * 2 == wreath_expected_order(spec)
    assert W.is_transitive()


def test_m11_wr_c2_chain_sifts_schreier_generators_of_g_at_level_0(monkeypatch):
    # level 0 sifts the Schreier generators of W's 5 generators only, not
    # those of all its strong generators
    from drg.catalog import catalog_load

    W = wreath_product_action(WreathSpec(catalog_load("M11:12").group, cyclic_group(2)))
    calls = 0
    sift = PermGroup._sift_residue

    def counting(self, p, start=0):
        nonlocal calls
        calls += 1
        return sift(self, p, start)

    monkeypatch.setattr(PermGroup, "_sift_residue", counting)
    assert W.order() == 7920 ** 2 * 2
    assert calls <= 1_306, calls


def test_wreath_top_trivial():
    base = cyclic_group(3)
    top = PermGroup([Permutation.identity(1)], name="1")
    W = wreath_product_action(WreathSpec(base, top))
    assert W.degree == 3 and W.order() == 3


def test_product_clique_sizes():
    h = parse_cycles("(0,1,2,3,4)", 5)
    cert1 = product_clique(h, 1)
    assert cert1.size == 2
    cert3 = product_clique(h, 3)
    assert cert3.size == 8
    assert cert3.vertices[0].degree == 125
    validate_clique(cert3)


def test_product_clique_needs_derangement():
    with pytest.raises(Exception):
        product_clique(parse_cycles("(0,1)", 3), 2)


def test_projective_points_count():
    F = GF(3)
    pts = projective_points(F, 4)
    assert len(pts) == 40
    F4 = GF(2, 2)
    assert len(projective_points(F4, 3)) == 21


def test_projective_perm_homomorphism():
    F = GF(3)
    pts = projective_points(F, 2)
    a = Matrix.from_lists(F, [[1, 1], [0, 1]])
    b = Matrix.from_lists(F, [[0, 1], [2, 0]])
    pa, pb = projective_perm(a, pts), projective_perm(b, pts)
    from drg.perm import compose

    assert compose(pa, pb) == projective_perm(a * b, pts)


def test_rank_one_family():
    for q, (p0, k) in ((2, (2, 1)), (3, (3, 1)), (4, (2, 2)), (5, (5, 1))):
        F = GF(p0, k)
        fam = rank_one_unipotent_family(F)
        assert len(fam) == q * q
        ident = Matrix.identity(F, 4)
        images = {m.rows for m in fam}
        assert len(images) == q * q
        for m in fam:
            assert (m * m).rows in images  # closed under multiplication
            for m2 in fam:
                assert (m * m2) == (m2 * m)
            if m != ident:
                assert m.sub(ident).rank() == 1
                assert m.order() == p0


def test_symplectic_family_preserves_form():
    for q, (p0, k) in ((2, (2, 1)), (3, (3, 1)), (4, (2, 2)), (5, (5, 1))):
        F = GF(p0, k)
        J = split_symplectic_form(F, 2, lower_sign=-1)
        fam = symplectic_unipotent_family(F)
        assert len(fam) == q * q
        for m in fam:
            assert preserves_symplectic(m, J)
        ident = Matrix.identity(F, 4)
        images = {m.rows for m in fam}
        for m in fam:
            assert (m * m).rows in images
            if m != ident:
                assert m.order() == p0
                assert m.sub(ident).rank() in (1, 2)


def test_ppd_block_witness_2_2():
    g, A, J, p = ppd_block_witness(2, 2)  # dimension 4 over GF(4)
    assert p == 5
    assert g.order() == 5
    assert preserves_symplectic(g, J)
    assert not matrix_has_eigenvalue_in_base(A)  # degree 2: irreducible


def test_ppd_block_witness_3_1():
    g, A, J, p = ppd_block_witness(3, 1)  # dimension 6 over GF(2)
    assert p == 7
    assert g.order() == 7
    assert preserves_symplectic(g, J)
    assert not matrix_has_eigenvalue_in_base(A)  # no roots and degree 3: irreducible


def test_ppd_block_witness_exceptions():
    for f, m in ((1, 2), (3, 2), (1, 6)):
        with pytest.raises(ValueError):
            ppd_block_witness(m, f)


def test_singer_minus_orders():
    for (m, q), expected in (((2, 5), 3), ((4, 3), 5), ((2, 4), 5)):
        X, Q, expect = singer_minus(m, q)
        assert expect == expected
        assert X.order() == expected
        assert preserves_quadratic(X, Q)
        for ell in range(1, expected):
            assert not matrix_has_eigenvalue_in_base(X ** ell)


def test_singer_minus_degenerate_case():
    X, Q, expect = singer_minus(2, 3)
    assert expect == 2
    assert X.order() == 2
    assert preserves_quadratic(X, Q)


def test_singer_minus_rejects_odd_m():
    with pytest.raises(ValueError):
        singer_minus(3, 4)
