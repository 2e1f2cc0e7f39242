"""Permutations on {0, ..., n-1} stored as image tuples.

The composition convention is fixed globally as a right action: in
``compose(p, q)`` the permutation ``p`` is applied first, then ``q``,
so ``compose(p, q).images[i] == q.images[p.images[i]]``.

Invariant: the images of every ``Permutation`` are a bijection of
{0, ..., n-1}, n >= 1. Images from outside (a list, a JSON certificate or
catalog file, a cycle string, ``from_cycles``, a map built by a formula) go
through the checking constructor ``Permutation(images)``, which raises
PermError on anything else. Products and inverses of bijections are
bijections, so ``compose``, ``inverse``, ``identity`` and ``**`` build their
results with the unchecked ``Permutation._trusted``, as do the stabilizer
chain, its element walk and ``group.close_subgroup`` for the products they
form; it must only ever receive images composed from existing permutations.

``times(t)`` is the one product kernel: the map u -> u∘t on image tuples.
The chain, the coset actions, the semiregular search and the oracles form
every product through it, one getter per fixed factor; only the products
wrapped as above skip the check, and ``group.CosetAction.act`` still builds
its induced permutations checked. ``inverse`` fills its tuples from one
cached ``range`` tuple per degree, so the inverses of one degree share
their int objects.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import lcm
from operator import eq, itemgetter


class PermError(ValueError):
    """Bad permutation input (not a bijection, degree mismatch, ...)."""


class Permutation:
    """An immutable bijection of {0, ..., n-1}, stored as its image tuple."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        if n < 1:
            raise PermError("degree must be at least 1")
        if sorted(images) != list(range(n)):
            raise PermError(f"not a permutation of 0..{n - 1}: {images!r}")
        object.__setattr__(self, "images", images)

    @staticmethod
    def _trusted(images: tuple[int, ...]) -> "Permutation":
        """Wrap an image tuple known to be a bijection, without checking it."""
        p = object.__new__(Permutation)
        object.__setattr__(p, "images", images)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @property
    def degree(self) -> int:
        return len(self.images)

    @staticmethod
    def identity(n: int) -> "Permutation":
        if n < 1:
            raise PermError("degree must be at least 1")
        return Permutation._trusted(_points(n))

    @staticmethod
    def from_cycles(cycles, degree: int) -> "Permutation":
        """Build a permutation from disjoint cycles of 0-based points."""
        images = list(range(degree))
        seen = set()
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                if a in seen or not 0 <= a < degree:
                    raise PermError(f"bad cycle point {a}")
                seen.add(a)
                images[a] = b
        return Permutation(images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def __invert__(self) -> "Permutation":
        return inverse(self)

    def __pow__(self, k: int) -> "Permutation":
        n = self.degree
        if k < 0:
            return inverse(self) ** (-k)
        result = Permutation.identity(n)
        base = self
        while k:
            if k & 1:
                result = compose(result, base)
            base = compose(base, base)
            k >>= 1
        return result

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation({cycle_string(self)!r}, degree={self.degree})"

    def is_identity(self) -> bool:
        images = self.images
        return all(map(eq, images, range(len(images))))

    def order(self) -> int:
        return lcm(*cycle_type(self)) if self.degree else 1

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles (including fixed points), each rooted at its minimum."""
        images = self.images
        seen = [False] * len(images)
        out = []
        for start in range(len(images)):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            j = images[start]
            while j != start:
                seen[j] = True
                cyc.append(j)
                j = images[j]
            out.append(tuple(cyc))
        return out


@lru_cache(maxsize=32)
def _points(n: int) -> tuple[int, ...]:
    """(0, ..., n-1), one tuple per degree, so its int objects are shared."""
    return tuple(range(n))


def times(t: tuple[int, ...]):
    """The map u -> u∘t on image tuples of t's degree: (u[t[0]], ..., u[t[-1]]).

    ``itemgetter`` with one index returns a scalar, so degree 1 is wrapped.
    """
    if len(t) == 1:
        return lambda u: (u[t[0]],)
    return itemgetter(*t)


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Apply p first, then q."""
    if p.degree != q.degree:
        raise PermError(f"degree mismatch: {p.degree} vs {q.degree}")
    return Permutation._trusted(times(p.images)(q.images))


def inverse(p: Permutation) -> Permutation:
    inv = [0] * p.degree
    for i, j in zip(_points(p.degree), p.images):
        inv[j] = i
    return Permutation._trusted(tuple(inv))


def cycle_type(p: Permutation) -> tuple[int, ...]:
    """Sorted multiset of cycle lengths; sums to the degree."""
    return tuple(sorted(len(c) for c in p.cycles()))


def has_fixed_point(images: tuple[int, ...]) -> bool:
    """True iff the image tuple sends some point to itself."""
    return any(map(eq, images, range(len(images))))


def is_derangement(p: Permutation) -> bool:
    return not has_fixed_point(p.images)


def fixed_points(p: Permutation) -> list[int]:
    return [i for i, j in enumerate(p.images) if i == j]


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int, one_based: bool = False) -> Permutation:
    """Parse a cycle string like ``"(0,1,2)(3,4)"`` into a permutation.

    Accepts comma or whitespace separated points. An empty string or
    ``"()"`` is the identity.
    """
    rest = text.strip()
    if rest and not _CYCLE_RE.search(rest):
        raise PermError(f"cannot parse cycle string {text!r}")
    cycles = []
    for grp in _CYCLE_RE.findall(rest):
        pts = [int(tok) for tok in re.split(r"[,\s]+", grp.strip()) if tok]
        if one_based:
            pts = [x - 1 for x in pts]
        if pts:
            cycles.append(pts)
    return Permutation.from_cycles(cycles, degree)


def cycle_string(p: Permutation) -> str:
    parts = ["(" + ",".join(map(str, c)) + ")" for c in p.cycles() if len(c) > 1]
    return "".join(parts) if parts else "()"
