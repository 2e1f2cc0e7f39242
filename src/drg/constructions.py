"""Builders: classical small groups, subset actions, wreath products in product
action, and the finite-field matrix witnesses behind the semiregularity
arguments for classical groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product as iproduct
from math import comb

from .fields import GF, ExtensionBasis, FieldError, Matrix, QuadraticForm, preserves_symplectic
from .graph import CliqueCertificate, validate_clique
from .group import DEFAULT_DEGREE_BUDGET, BudgetError, PermGroup
from .numth import is_prime, is_prime_power, primitive_prime_divisors
from .perm import Permutation, PermError, is_derangement, parse_cycles
from .semireg import product_action_perm


# -- elementary families ----------------------------------------------------------


def cyclic_group(n: int) -> PermGroup:
    return PermGroup([Permutation([(i + 1) % n for i in range(n)])], name=f"C{n}")


def dihedral_group(n: int) -> PermGroup:
    rot = Permutation([(i + 1) % n for i in range(n)])
    ref = Permutation([(-i) % n for i in range(n)])
    return PermGroup([rot, ref], name=f"D{n}")


def natural_sym(m: int) -> PermGroup:
    if m < 2:
        return PermGroup([Permutation.identity(max(m, 1))], name=f"S{m}")
    gens = [parse_cycles("(0,1)", m),
            Permutation([(i + 1) % m for i in range(m)])]
    return PermGroup(gens, name=f"S{m}")


def natural_alt(m: int) -> PermGroup:
    if m < 3:
        return PermGroup([Permutation.identity(max(m, 1))], name=f"A{m}")
    gens = [parse_cycles("(0,1,2)", m)]
    if m % 2:
        gens.append(Permutation([(i + 1) % m for i in range(m)]))
    else:
        gens.append(Permutation([0] + [1 + (j % (m - 1)) for j in range(1, m)]))
    return PermGroup(gens, name=f"A{m}")


def projective_line_psl2(p: int) -> PermGroup:
    """PSL(2, p) acting on the p + 1 points of the projective line, p prime.

    Point i < p is the field element i; point p is infinity. Generated by
    z -> z + 1 and z -> -1/z.
    """
    if not is_prime(p):
        raise PermError("projective_line_psl2 needs a prime")
    inf = p

    def add1(z):
        return inf if z == inf else (z + 1) % p

    def neginv(z):
        if z == inf:
            return 0
        if z == 0:
            return inf
        return (-pow(z, p - 2, p)) % p

    gens = [Permutation([add1(z) for z in range(p + 1)]),
            Permutation([neginv(z) for z in range(p + 1)])]
    return PermGroup(gens, name=f"PSL2({p}):{p + 1}")


# -- subset actions ----------------------------------------------------------------


def subset_points(m: int, ell: int) -> list[tuple[int, ...]]:
    return list(combinations(range(m), ell))


def subset_image(g: Permutation, m: int, ell: int) -> Permutation:
    """The permutation induced by g on the ell-subsets of {0, ..., m-1}."""
    pts = subset_points(m, ell)
    index = {s: i for i, s in enumerate(pts)}
    return Permutation(index[tuple(sorted(g.images[x] for x in s))] for s in pts)


def subsets_action(m: int, ell: int,
                   degree_budget: int = DEFAULT_DEGREE_BUDGET) -> PermGroup:
    """Alt(m) acting on ell-subsets; degree C(m, ell), order m!/2."""
    if not 1 <= ell <= m // 2:
        raise PermError(f"need 1 <= ell <= m/2, got ({m}, {ell})")
    degree = comb(m, ell)
    if degree > degree_budget:
        raise BudgetError(f"degree {degree} exceeds budget {degree_budget}")
    base = natural_alt(m)
    gens = [subset_image(g, m, ell) for g in base.generators]
    return PermGroup(gens, name=f"A{m} on {ell}-subsets")


def alt_subset_semiregular_witness(m: int, ell: int, p: int) -> Permutation:
    """An order-p element of Alt(m) semiregular on ell-subsets.

    Needs p prime with p > ell, p dividing m(m-1)...(m-ell+1) and
    m mod p <= ell - 1; the witness has m mod p fixed points and
    (m - m mod p)/p disjoint p-cycles, so no power can fix an ell-subset.
    """
    if not is_prime(p):
        raise PermError(f"{p} is not prime")
    window = 1
    for k in range(m - ell + 1, m + 1):
        window *= k
    if p <= ell or window % p != 0 or m % p > ell - 1:
        raise PermError(f"condition fails for (m={m}, ell={ell}, p={p})")
    fixed = m % p
    n_cycles = (m - fixed) // p
    if p == 2 and n_cycles % 2 == 1:
        raise PermError("the fixed-point-free involution is odd, not in Alt(m)")
    cycles = [list(range(i * p, (i + 1) * p)) for i in range(n_cycles)]
    g = Permutation.from_cycles(cycles, m)
    return subset_image(g, m, ell)


# -- wreath products in product action ----------------------------------------------


@dataclass
class WreathSpec:
    base: PermGroup
    top: PermGroup

    @property
    def product_degree(self) -> int:
        return self.base.degree ** self.top.degree


def wreath_product_action(spec: WreathSpec,
                          degree_budget: int = DEFAULT_DEGREE_BUDGET) -> PermGroup:
    """base wr top acting on Delta^k; order |base|^k * |top|."""
    degree = spec.product_degree
    if degree > degree_budget:
        raise BudgetError(f"product degree {degree} exceeds budget {degree_budget}")
    kappa = spec.top.degree
    ident_base = Permutation.identity(spec.base.degree)
    ident_top = Permutation.identity(kappa)
    gens = []
    for i in range(kappa):
        for g in spec.base.generators:
            h_list = [ident_base] * kappa
            h_list[i] = g
            gens.append(product_action_perm(h_list, ident_top))
    for a in spec.top.generators:
        gens.append(product_action_perm([ident_base] * kappa, a))
    name = f"{spec.base.name or 'base'} wr {spec.top.name or 'top'}:{degree}"
    return PermGroup(gens, degree, name=name)


def wreath_expected_order(spec: WreathSpec) -> int:
    return spec.base.order() ** spec.top.degree * spec.top.order()


def product_clique(h: Permutation, kappa: int,
                   degree_budget: int = DEFAULT_DEGREE_BUDGET) -> CliqueCertificate:
    """The 2^kappa clique {(h^e1, ..., h^ek)} in the product action.

    Every ratio is coordinatewise h^{+-1} or the identity with at least one
    non-identity coordinate, hence a derangement; needs h itself to be one.
    """
    if not is_derangement(h):
        raise PermError("product_clique needs a derangement of the base domain")
    if h.degree ** kappa > degree_budget:
        raise BudgetError("product domain exceeds the degree budget")
    ident_base = Permutation.identity(h.degree)
    ident_top = Permutation.identity(kappa)
    vertices = []
    for eps in iproduct((0, 1), repeat=kappa):
        h_list = [h if e else ident_base for e in eps]
        vertices.append(product_action_perm(h_list, ident_top))
    cert = CliqueCertificate(vertices)
    validate_clique(cert)
    return cert


# -- projective and matrix-level constructions ---------------------------------------


def projective_points(field: GF, dim: int) -> list[tuple]:
    """Canonical representatives of 1-spaces: first nonzero coordinate is one."""
    pts = []
    for vec in iproduct(field.elements(), repeat=dim):
        for c in vec:
            if c != field.zero:
                if c == field.one:
                    pts.append(vec)
                break
    return pts


def projective_perm(M: Matrix, points: list[tuple] | None = None) -> Permutation:
    """The permutation induced by an invertible matrix on projective points."""
    F = M.field
    if points is None:
        points = projective_points(F, M.dim)
    index = {v: i for i, v in enumerate(points)}

    def canon(v):
        for c in v:
            if c != F.zero:
                inv = F.inv(c)
                return tuple(F.mul(inv, x) for x in v)
        raise FieldError("zero vector")

    return Permutation(index[canon(M.apply_row(v))] for v in points)


def split_symplectic_form(field: GF, m: int, lower_sign: int = -1) -> Matrix:
    """The 2m x 2m form with blocks [[0, I], [sign*I, 0]]."""
    n = 2 * m
    rows = [[field.zero] * n for _ in range(n)]
    sign = field.scalar(lower_sign)
    for i in range(m):
        rows[i][m + i] = field.one
        rows[m + i][i] = sign
    return Matrix(field, tuple(tuple(r) for r in rows))


def rank_one_unipotent_family(field: GF) -> list[Matrix]:
    """The q^2 upper unipotents I + a*E13 + b*E14: elementary abelian, every
    non-identity member has rank(x - I) = 1 (one Jordan block of size 2)."""
    out = []
    for a in field.elements():
        for b in field.elements():
            rows = [
                (field.one, field.zero, a, b),
                (field.zero, field.one, field.zero, field.zero),
                (field.zero, field.zero, field.one, field.zero),
                (field.zero, field.zero, field.zero, field.one),
            ]
            out.append(Matrix(field, tuple(rows)))
    return out


def symplectic_unipotent_family(field: GF) -> list[Matrix]:
    """The q^2 unipotents I + a*E13 + b*E14 + b*E23, all preserving the
    split form [[0, I], [-I, 0]]; elementary abelian of order q^2."""
    out = []
    for a in field.elements():
        for b in field.elements():
            rows = [
                (field.one, field.zero, a, b),
                (field.zero, field.one, b, field.zero),
                (field.zero, field.zero, field.one, field.zero),
                (field.zero, field.zero, field.zero, field.one),
            ]
            out.append(Matrix(field, tuple(rows)))
    return out


_PPD_BLOCK_EXCEPTIONS = {(1, 2), (3, 2), (1, 6)}


def ppd_block_witness(m: int, f: int) -> tuple[Matrix, Matrix, Matrix, int]:
    """A symplectic element diag(A, (A^-1)^T) of primitive-prime-divisor order.

    Over GF(2^f) in dimension 2m: A is multiplication by an order-p element
    of GF(2^(f m)) written on an m-dimensional GF(2^f) basis, where p is the
    largest primitive prime divisor of 2^(f m) - 1. Returns (g, A, J, p)
    with J the split form [[0, I], [I, 0]].
    """
    if (f, m) in _PPD_BLOCK_EXCEPTIONS:
        raise ValueError(
            f"(f, m) = ({f}, {m}) is on the handled exceptional list {sorted(_PPD_BLOCK_EXCEPTIONS)}"
        )
    ppd = primitive_prime_divisors(2, f * m)
    if ppd.exceptional:
        raise ValueError(f"2^{f * m} - 1 has no primitive prime divisor")
    p = max(ppd.primitive_divisors)
    field_q = GF(2, f)
    big = GF(2, f * m)
    ext = ExtensionBasis(big, 2 ** f, m)
    lam = big.pow(big.generator(), (big.size - 1) // p)
    A = ext.mult_matrix(lam, field_q)
    A_inv_t = A.inverse().transpose()
    n = 2 * m
    rows = [[field_q.zero] * n for _ in range(n)]
    for i in range(m):
        for j in range(m):
            rows[i][j] = A.rows[i][j]
            rows[m + i][m + j] = A_inv_t.rows[i][j]
    g = Matrix(field_q, tuple(tuple(r) for r in rows))
    J = split_symplectic_form(field_q, m, lower_sign=1)
    assert preserves_symplectic(g, J)
    return g, A, J, p


def norm_form(big: GF, ext: ExtensionBasis, field_q: GF) -> QuadraticForm:
    """The minus-type quadratic form Q(v) = Tr_{F_{q^{m/2}}/F_q}(v^(q^(m/2)+1))
    on GF(q^m) viewed as F_q^m."""
    q = ext.q
    m = ext.m
    half = q ** (m // 2)
    iso = ext._subfield_iso(field_q)
    uniso = {v: k for k, v in iso.items()}

    def evaluate(vec):
        v = ext.element_of(tuple(uniso[c] for c in vec))
        w = big.mul(v, big.pow(v, half))  # the relative norm, in F_{q^{m/2}}
        tr = big.zero
        acc = w
        for _ in range(m // 2):
            tr = big.add(tr, acc)
            acc = big.pow(acc, q)
        return iso[tr]

    return QuadraticForm(field_q, m, evaluate)


def singer_minus(m: int, q: int) -> tuple[Matrix, QuadraticForm, int]:
    """A norm-one multiplication matrix of order (q^(m/2)+1)/gcd(2, q-1).

    Acts on F_q^m = GF(q^m) preserving the field-norm minus-type quadratic
    form; no nontrivial power has an eigenvalue in F_q unless it lands in
    the base field itself.
    """
    if m < 2 or m % 2:
        raise ValueError("singer_minus needs even m >= 2")
    pk = is_prime_power(q)
    if pk is None:
        raise ValueError(f"{q} is not a prime power")
    p0, f = pk
    field_q = GF(p0, f)
    big = GF(p0, f * m)
    ext = ExtensionBasis(big, q, m)
    circle_order = q ** (m // 2) + 1
    u = big.pow(big.generator(), (big.size - 1) // circle_order)
    x_elt = big.mul(u, u) if q % 2 else u
    X = ext.mult_matrix(x_elt, field_q)
    Q = norm_form(big, ext, field_q)
    expected = circle_order // (2 if q % 2 else 1)
    return X, Q, expected


def matrix_has_eigenvalue_in_base(M: Matrix) -> bool:
    """det(M - c I) = 0 for some c in the base field of M."""
    F = M.field
    n = M.dim
    for c in F.elements():
        shifted = [list(row) for row in M.rows]
        for i in range(n):
            shifted[i][i] = F.sub(shifted[i][i], c)
        if Matrix(F, tuple(tuple(r) for r in shifted)).det() == F.zero:
            return True
    return False
