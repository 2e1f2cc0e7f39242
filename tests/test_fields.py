import random
from itertools import product as iproduct

import pytest

from drg.fields import (
    GF,
    ExtensionBasis,
    FieldError,
    Matrix,
    QuadraticForm,
    preserves_quadratic,
    preserves_symplectic,
)


def test_prime_field_arithmetic():
    F = GF(5)
    a, b = F.from_int(3), F.from_int(4)
    assert F.mul(a, b) == F.from_int(2)
    assert F.add(a, b) == F.from_int(2)
    assert F.inv(a) == F.from_int(2)  # 3 * 2 = 6 = 1


def test_gf4_structure():
    F = GF(2, 2)
    elems = F.elements()
    assert len(elems) == 4
    # multiplicative group is cyclic of order 3
    gen = F.generator()
    assert F.element_order(gen) == 3
    assert F.pow(gen, 3) == F.one


def test_gf9_modulus_least():
    F = GF(3, 2)
    # lexicographically least monic irreducible of degree 2 over GF(3) is x^2 + 1
    assert F.modulus == (1, 0, 1)


def test_field_axioms_random():
    rng = random.Random(5)
    for F in (GF(2, 3), GF(3, 2), GF(2, 4), GF(5, 2)):
        elems = F.elements()
        for _ in range(120):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
            assert F.mul(a, b) == F.mul(b, a)
            if a != F.zero:
                assert F.mul(a, F.inv(a)) == F.one


def test_frobenius_subfield():
    F = GF(2, 4)
    sub = [a for a in F.elements() if F.in_subfield(a, 4)]
    assert len(sub) == 4
    for a in sub:
        for b in sub:
            assert F.add(a, b) in sub
            assert F.mul(a, b) in sub


def test_matrix_inverse_and_rank():
    F = GF(3)
    M = Matrix.from_lists(F, [[1, 2], [0, 1]])
    assert M.rank() == 2
    assert (M * M.inverse()).is_identity()
    S = Matrix.from_lists(F, [[1, 2], [2, 4]])
    assert S.rank() == 1
    with pytest.raises(FieldError):
        S.inverse()


def test_matrix_order():
    F = GF(2)
    M = Matrix.from_lists(F, [[0, 1], [1, 1]])
    assert M.order() == 3  # companion of x^2 + x + 1 over GF(2)
    ident = Matrix.identity(F, 2)
    assert ident.order() == 1
    with pytest.raises(FieldError):
        Matrix.from_lists(F, [[0, 0], [0, 0]]).order()


def test_scalar_minus_one_order_two():
    F = GF(5)
    n = 4
    neg = Matrix.from_lists(F, [[(4 if i == j else 0) for j in range(n)] for i in range(n)])
    assert neg.order() == 2


def test_preserves_symplectic_identity_and_scalar():
    from drg.constructions import split_symplectic_form

    F = GF(5)
    J = split_symplectic_form(F, 2)
    ident = Matrix.identity(F, 4)
    assert preserves_symplectic(ident, J)
    neg = Matrix.from_lists(F, [[(4 if i == j else 0) for j in range(4)] for i in range(4)])
    assert preserves_symplectic(neg, J)


def test_quadratic_form_polarization():
    # Q(x, y) = x^2 + y^2 on GF(3)^2, preserved by coordinate swap
    F = GF(3)

    def evaluate(v):
        return F.add(F.mul(v[0], v[0]), F.mul(v[1], v[1]))

    Q = QuadraticForm(F, 2, evaluate)
    swap = Matrix.from_lists(F, [[0, 1], [1, 0]])
    assert preserves_quadratic(swap, Q)
    shear = Matrix.from_lists(F, [[1, 1], [0, 1]])
    assert not preserves_quadratic(shear, Q)


def test_extension_basis_coords_roundtrip():
    big = GF(2, 4)
    ext = ExtensionBasis(big, 4, 2)
    for a in big.elements():
        assert ext.element_of(ext.vector_of(a)) == a


def test_extension_mult_matrix_is_homomorphism():
    big = GF(2, 4)
    ext = ExtensionBasis(big, 4, 2)
    Fq = GF(2, 2)
    rng = random.Random(9)
    elems = [a for a in big.elements() if a != big.zero]
    for _ in range(25):
        lam, mu = rng.choice(elems), rng.choice(elems)
        m_lam = ext.mult_matrix(lam, Fq)
        m_mu = ext.mult_matrix(mu, Fq)
        assert m_lam * m_mu == ext.mult_matrix(big.mul(lam, mu), Fq)
        assert m_lam.order() == big.element_order(lam)


def _small_matrices():
    """Every 2x2 matrix over GF(2), GF(3) and GF(4), and every 3x3 one over GF(2)."""
    for F, n in ((GF(2), 2), (GF(3), 2), (GF(2, 2), 2), (GF(2), 3)):
        for entries in iproduct(F.elements(), repeat=n * n):
            yield Matrix(F, tuple(entries[i * n:(i + 1) * n] for i in range(n)))


def _char_poly_at(M, c):
    """det(c I - M) for n = 2 or 3, written out from trace, principal minors and det."""
    F, a = M.field, M.rows
    add, sub, mul = F.add, F.sub, F.mul

    def minor(i, j):
        return sub(mul(a[i][i], a[j][j]), mul(a[i][j], a[j][i]))

    if M.dim == 2:
        trace, det = add(a[0][0], a[1][1]), minor(0, 1)
        return add(sub(mul(c, c), mul(trace, c)), det)
    trace = add(add(a[0][0], a[1][1]), a[2][2])
    minors = add(add(minor(0, 1), minor(0, 2)), minor(1, 2))
    det = add(sub(mul(a[0][0], minor(1, 2)),
                  mul(a[0][1], sub(mul(a[1][0], a[2][2]), mul(a[1][2], a[2][0])))),
              mul(a[0][2], sub(mul(a[1][0], a[2][1]), mul(a[1][1], a[2][0]))))
    c2 = mul(c, c)
    return sub(add(sub(mul(c2, c), mul(trace, c2)), mul(minors, c)), det)


def test_eigenvalue_test_matches_characteristic_polynomial():
    from drg.constructions import matrix_has_eigenvalue_in_base

    count = 0
    for M in _small_matrices():
        F = M.field
        has_root = any(_char_poly_at(M, c) == F.zero for c in F.elements())
        assert matrix_has_eigenvalue_in_base(M) == has_root, M
        count += 1
    assert count == 16 + 81 + 256 + 512


def test_matrix_inverse_on_all_small_matrices():
    for M in _small_matrices():
        F = M.field
        if _char_poly_at(M, F.zero) == F.zero:  # +-det(M)
            with pytest.raises(FieldError):
                M.inverse()
        else:
            inv = M.inverse()
            assert (M * inv).is_identity() and (inv * M).is_identity(), M
