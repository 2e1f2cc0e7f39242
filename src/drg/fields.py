"""Small finite fields GF(p^k) and dense matrices over them.

Field elements are coefficient tuples over the prime field in the
polynomial basis, reduced modulo the lexicographically least monic
irreducible polynomial of the required degree; that choice makes every
construction downstream reproducible. Vectors are rows and matrices act on
the right (v -> v M), so a matrix M preserves a bilinear form with Gram
matrix J exactly when M J M^T = J.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

from .numth import factorize, is_prime, is_prime_power


class FieldError(ValueError):
    pass


def _poly_trim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_divmod(a: tuple[int, ...], b: tuple[int, ...], p: int):
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    inv_lb = pow(lb, p - 2, p)
    quot = [0] * max(0, len(a) - db)
    while len(a) - 1 >= db and any(a):
        shift = len(a) - 1 - db
        coef = a[-1] * inv_lb % p
        quot[shift] = coef
        for i, bc in enumerate(b):
            a[shift + i] = (a[shift + i] - coef * bc) % p
        del a[-1]
        while a and a[-1] == 0 and len(a) - 1 >= db:
            del a[-1]
    return _poly_trim(quot), _poly_trim(a)


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Brute-force divisor test; fine for the tiny degrees used here."""
    k = len(poly) - 1
    for d in range(1, k // 2 + 1):
        for tail in iproduct(range(p), repeat=d):
            candidate = tuple(tail) + (1,)
            _, rem = _poly_divmod(poly, candidate, p)
            if not rem:
                return False
    return True


class GF:
    """The field with p^k elements; elements are coefficient tuples of length k."""

    def __init__(self, p: int, k: int = 1):
        if not is_prime(p):
            raise FieldError(f"characteristic {p} is not prime")
        if k < 1:
            raise FieldError("extension degree must be positive")
        self.p = p
        self.k = k
        self.size = p ** k
        self.modulus = self._least_irreducible() if k > 1 else (0, 1)
        # reduction table for x^k .. x^(2k-2)
        self._red: list[tuple[int, ...]] = []
        if k > 1:
            xk = tuple(-c % p for c in self.modulus[:-1])
            self._red.append(xk)
            for _ in range(k - 2):
                prev = self._red[-1]
                shifted = (0,) + prev[:-1]
                top = prev[-1]
                self._red.append(tuple((shifted[i] + top * xk[i]) % p for i in range(k)))
        self.zero = (0,) * k
        self.one = (1,) + (0,) * (k - 1)
        self._gen: tuple[int, ...] | None = None

    def _least_irreducible(self) -> tuple[int, ...]:
        for tail in iproduct(range(self.p), repeat=self.k):
            # tail is (c_{k-1}, ..., c_0); scan so that small leading coeffs come first
            coeffs = tuple(reversed(tail)) + (1,)
            if coeffs[0] != 0 and _is_irreducible(coeffs, self.p):
                return coeffs
        raise AssertionError("no irreducible polynomial found")

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.k})" if self.k > 1 else f"GF({self.p})"

    def __eq__(self, other) -> bool:
        return isinstance(other, GF) and (self.p, self.k) == (other.p, other.k)

    def __hash__(self) -> int:
        return hash((self.p, self.k))

    # -- element arithmetic (elements are plain tuples) --

    def from_int(self, n: int) -> tuple[int, ...]:
        digits = []
        n %= self.size
        for _ in range(self.k):
            digits.append(n % self.p)
            n //= self.p
        return tuple(digits)

    def elements(self) -> list[tuple[int, ...]]:
        return [self.from_int(n) for n in range(self.size)]

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x % self.p for x in a)

    def scalar(self, c: int):
        return (c % self.p,) + (0,) * (self.k - 1)

    def mul(self, a, b):
        if self.k == 1:
            return (a[0] * b[0] % self.p,)
        k, p = self.k, self.p
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] = (prod[i + j] + x * y) % p
        out = list(prod[:k])
        for t, red in enumerate(self._red):
            c = prod[k + t]
            if c:
                for i in range(k):
                    out[i] = (out[i] + c * red[i]) % p
        return tuple(out)

    def pow(self, a, e: int):
        if e < 0:
            return self.pow(self.inv(a), -e)
        out = self.one
        base = a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def inv(self, a):
        if a == self.zero:
            raise FieldError("division by zero")
        return self.pow(a, self.size - 2)

    def element_order(self, a) -> int:
        if a == self.zero:
            raise FieldError("zero has no multiplicative order")
        order = self.size - 1
        for q, e in factorize(order).items():
            for _ in range(e):
                if self.pow(a, order // q) == self.one:
                    order //= q
                else:
                    break
        return order

    def generator(self) -> tuple[int, ...]:
        if self._gen is None:
            for n in range(1, self.size):
                a = self.from_int(n)
                if self.element_order(a) == self.size - 1:
                    self._gen = a
                    break
        return self._gen

    def in_subfield(self, a, q: int) -> bool:
        """Membership in the subfield of size q (q = p^d with d | k)."""
        return self.pow(a, q) == a


@dataclass(frozen=True)
class Matrix:
    field: GF
    rows: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def dim(self) -> int:
        return len(self.rows)

    @staticmethod
    def identity(field: GF, n: int) -> "Matrix":
        return Matrix(field, tuple(
            tuple(field.one if i == j else field.zero for j in range(n))
            for i in range(n)
        ))

    @staticmethod
    def from_lists(field: GF, entries) -> "Matrix":
        rows = []
        for row in entries:
            cells = []
            for c in row:
                cells.append(field.from_int(c) if isinstance(c, int) else tuple(c))
            rows.append(tuple(cells))
        return Matrix(field, tuple(rows))

    def __mul__(self, other: "Matrix") -> "Matrix":
        F = self.field
        n = self.dim
        bt = tuple(zip(*other.rows))
        out = []
        for row in self.rows:
            new_row = []
            for col in bt:
                acc = F.zero
                for x, y in zip(row, col):
                    acc = F.add(acc, F.mul(x, y))
                new_row.append(acc)
            out.append(tuple(new_row))
        return Matrix(F, tuple(out))

    def __pow__(self, e: int) -> "Matrix":
        if e < 0:
            return self.inverse() ** (-e)
        out = Matrix.identity(self.field, self.dim)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def transpose(self) -> "Matrix":
        return Matrix(self.field, tuple(zip(*self.rows)))

    def sub(self, other: "Matrix") -> "Matrix":
        F = self.field
        return Matrix(F, tuple(
            tuple(F.sub(x, y) for x, y in zip(r1, r2))
            for r1, r2 in zip(self.rows, other.rows)
        ))

    def apply_row(self, v):
        """Row vector times matrix."""
        F = self.field
        out = [F.zero] * self.dim
        for x, row in zip(v, self.rows):
            if x != F.zero:
                for j, y in enumerate(row):
                    out[j] = F.add(out[j], F.mul(x, y))
        return tuple(out)

    def _eliminated(self):
        F = self.field
        rows = [list(r) for r in self.rows]
        n = self.dim
        rank = 0
        det = F.one
        for col in range(n):
            pivot = None
            for r in range(rank, n):
                if rows[r][col] != F.zero:
                    pivot = r
                    break
            if pivot is None:
                det = F.zero
                continue
            if pivot != rank:
                rows[rank], rows[pivot] = rows[pivot], rows[rank]
                det = F.neg(det)
            inv = F.inv(rows[rank][col])
            det = F.mul(det, rows[rank][col])
            rows[rank] = [F.mul(inv, x) for x in rows[rank]]
            for r in range(n):
                if r != rank and rows[r][col] != F.zero:
                    factor = rows[r][col]
                    rows[r] = [F.sub(x, F.mul(factor, y))
                               for x, y in zip(rows[r], rows[rank])]
            rank += 1
        return rows, rank, det

    def rank(self) -> int:
        return self._eliminated()[1]

    def det(self):
        return self._eliminated()[2]

    def is_identity(self) -> bool:
        return self == Matrix.identity(self.field, self.dim)

    def inverse(self) -> "Matrix":
        """Gauss-Jordan on [M | I]: the pivots are taken in M's n columns."""
        n = self.dim
        ident = Matrix.identity(self.field, n).rows
        augmented = Matrix(self.field, tuple(r + e for r, e in zip(self.rows, ident)))
        rows, rank, _ = augmented._eliminated()
        if rank < n:
            raise FieldError("matrix is singular")
        return Matrix(self.field, tuple(tuple(row[n:]) for row in rows))

    def order(self, cap: int = 10 ** 6) -> int:
        """Multiplicative order; raises on singular input."""
        if self.det() == self.field.zero:
            raise FieldError("singular matrix has no order")
        acc = self
        n = 1
        ident = Matrix.identity(self.field, self.dim)
        while acc != ident:
            acc = acc * self
            n += 1
            if n > cap:
                raise FieldError(f"order exceeds cap {cap}")
        return n


def preserves_symplectic(M: Matrix, J: Matrix) -> bool:
    """M J M^T = J under the row-vector convention."""
    return M * J * M.transpose() == J


class QuadraticForm:
    """A quadratic form given by an evaluator on row coordinate vectors."""

    def __init__(self, field: GF, dim: int, evaluate):
        self.field = field
        self.dim = dim
        self.evaluate = evaluate

    def bilinear(self, u, v):
        F = self.field
        s = tuple(F.add(x, y) for x, y in zip(u, v))
        return F.sub(F.sub(self.evaluate(s), self.evaluate(u)), self.evaluate(v))


def preserves_quadratic(M: Matrix, Q: QuadraticForm) -> bool:
    """Check Q(e_i M) = Q(e_i) and polarization on all basis pairs.

    Values on a basis plus the polarized bilinear form on basis pairs
    determine Q, so this is a complete preservation proof.
    """
    F = M.field
    n = M.dim
    basis = [tuple(F.one if j == i else F.zero for j in range(n)) for i in range(n)]
    for i in range(n):
        if Q.evaluate(M.apply_row(basis[i])) != Q.evaluate(basis[i]):
            return False
        for j in range(i + 1, n):
            lhs = Q.bilinear(M.apply_row(basis[i]), M.apply_row(basis[j]))
            if lhs != Q.bilinear(basis[i], basis[j]):
                return False
    return True


class ExtensionBasis:
    """F_q-linear coordinates on GF(p^(f*m)), where q = p^f.

    Realizes the big field as the vector space F_q^m via a greedily chosen
    basis; used to write multiplication-by-lambda maps as m x m matrices.
    """

    def __init__(self, big: GF, q: int, m: int):
        pk = is_prime_power(q)
        if pk is None or pk[0] != big.p or pk[1] * m != big.k:
            raise FieldError(f"GF({big.p}^{big.k}) is not a degree-{m} extension of GF({q})")
        self.big = big
        self.q = q
        self.m = m
        self.subfield = [a for a in big.elements() if big.in_subfield(a, q)]
        assert len(self.subfield) == q
        # coords: element of big -> row vector over the subfield
        self.basis: list[tuple[int, ...]] = []
        self.coords: dict[tuple[int, ...], tuple] = {big.zero: ()}
        for a in big.elements():
            if a in self.coords:
                continue
            self._extend_basis(a)
            if len(self.basis) == m:
                break
        assert len(self.coords) == big.size

    def _extend_basis(self, new: tuple[int, ...]) -> None:
        big = self.big
        old = dict(self.coords)
        self.basis.append(new)
        self.coords = {}
        for elem, coord in old.items():
            for c in self.subfield:
                combined = big.add(elem, big.mul(c, new))
                self.coords[combined] = coord + (c,)

    def vector_of(self, a) -> tuple:
        """Coordinates of a, as a row vector of subfield elements."""
        return self.coords[a]

    def element_of(self, vec) -> tuple[int, ...]:
        big = self.big
        acc = big.zero
        for c, b in zip(vec, self.basis):
            acc = big.add(acc, big.mul(c, b))
        return acc

    def mult_matrix(self, lam, field_q: GF) -> Matrix:
        """Multiplication by lam on the big field, as an m x m matrix over GF(q).

        The subfield of the big field is identified with the standalone
        GF(q) by matching the deterministic element orders of both.
        """
        iso = self._subfield_iso(field_q)
        rows = []
        for b in self.basis:
            vec = self.vector_of(self.big.mul(b, lam))
            rows.append(tuple(iso[c] for c in vec))
        return Matrix(field_q, tuple(rows))

    def _subfield_iso(self, field_q: GF) -> dict:
        """Field isomorphism subfield-of-big -> GF(q), by generator matching."""
        if field_q.size != self.q:
            raise FieldError("target field has the wrong size")
        if self.q == self.big.p:
            return {self.big.scalar(c): field_q.scalar(c) for c in range(self.q)}
        # match a generator of the subfield to a root of field_q's modulus
        sub_gen = None
        for a in self.subfield:
            if a != self.big.zero and self.big.element_order(a) == self.q - 1:
                sub_gen = a
                break
        for n in range(1, field_q.size):
            cand = field_q.from_int(n)
            if field_q.element_order(cand) != self.q - 1:
                continue
            # the iso must match minimal polynomials; test by exponent table
            iso = {self.big.zero: field_q.zero}
            x, y = self.big.one, field_q.one
            ok = True
            for _ in range(self.q - 1):
                iso[x] = y
                x2, y2 = self.big.mul(x, sub_gen), field_q.mul(y, cand)
                x, y = x2, y2
            # verify additivity on a sample; full check is cheap at this size
            for a in self.subfield:
                for b in self.subfield:
                    if iso[self.big.add(a, b)] != field_q.add(iso[a], iso[b]):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return iso
        raise AssertionError("no subfield isomorphism found")
