"""Reference implementations used to cross-check the production searches.

These share no search logic with the production code: cliques and cocliques
go through Bron-Kerbosch with pivoting on explicit adjacency bitsets, group
order through a plain breadth-first closure, and the semiregular maximum
through a walk of the subgroup lattice below the degree. They are meant for
groups of order a few hundred.

Each exhaustive search stops at a proven ceiling, never below the answer:

- omega <= n, the degree: the members of a clique send point 0 to pairwise
  distinct points.
- alpha <= |G| / |C| for any clique C, maximum or not: the derangement graph
  is a Cayley graph, hence vertex-transitive, and there alpha * |C| <= |G|
  (the clique-coclique bound; Godsil-Meagher, *Erdos-Ko-Rado Theorems:
  Algebraic Approaches*, 2016). The translates hC, h in G, cover each vertex
  |C| times, and each meets a coclique in at most one vertex.
- a semiregular subgroup has order dividing n: its orbits are regular. Its
  subgroups are semiregular too, so the lattice walk visits only subgroups
  and cyclic subgroups of order dividing n, and closes a join of H with a
  cyclic Z only under the largest order it can have there: a divisor d of
  n with d > |H|, lcm(|H|, |Z|) dividing d (Lagrange) and
  d >= |H||Z| / |H meet Z| (the product formula). A join with no such d is
  skipped unclosed. The skips read orders and element sets alone, never
  fixed points.
"""

from __future__ import annotations

from functools import reduce
from math import gcd, lcm
from operator import or_

from .group import PermGroup, close_subgroup
from .perm import Permutation, times


def closure_order(G: PermGroup, cap: int = 10 ** 6) -> int:
    elems = close_subgroup(list(G.generators), G.degree, cap)
    if elems is None:
        raise ValueError("closure exceeded the cap")
    return len(elems)


def _adjacency_bitsets(images: list[tuple[int, ...]], complement: bool) -> list[int]:
    """Rows of the derangement graph on ``images``, or of its complement.

    Two elements are adjacent in the derangement graph iff they agree at no
    point. For each point x, ``sends[x][y]`` is the bitset of the elements
    that send x to y; the elements that agree with g somewhere, g itself
    among them, are the OR over x of ``sends[x][g[x]]``.
    """
    sends = [{} for _ in images[0]]
    for i, g in enumerate(images):
        for at_x, y in zip(sends, g):
            at_x[y] = at_x.get(y, 0) | 1 << i
    everyone = (1 << len(images)) - 1
    rows = []
    for i, g in enumerate(images):
        agree = reduce(or_, [at_x[y] for at_x, y in zip(sends, g)])
        rows.append(agree & ~(1 << i) if complement else everyone & ~agree)
    return rows


def _bron_kerbosch(adj: list[int], n: int, ceiling: int | None = None) -> list[int]:
    """Maximum clique via pivoted Bron-Kerbosch over int bitsets.

    Given a ceiling, a proven upper bound on the clique number, the search
    stops as soon as it holds a clique of that size.
    """
    best: list[int] = []
    target = n if ceiling is None else ceiling

    def extend(r: list[int], p: int, x: int) -> None:
        nonlocal best
        if not p and not x:
            if len(r) > len(best):
                best = r.copy()
            return
        if len(r) + p.bit_count() <= len(best):
            return
        pivot_pool = p | x
        pivot = (pivot_pool & -pivot_pool).bit_length() - 1
        best_cover = p & ~adj[pivot]
        candidates = best_cover
        while candidates and len(best) < target:
            low = candidates & -candidates
            v = low.bit_length() - 1
            candidates ^= low
            r.append(v)
            extend(r, p & adj[v], x & adj[v])
            r.pop()
            p &= ~(1 << v)
            x |= 1 << v

    extend([], (1 << n) - 1, 0)
    return best


def exhaustive_max_clique(G: PermGroup) -> int:
    """omega of the derangement graph over all |G| vertices, no symmetry tricks.

    Stops at a clique of size n = degree: omega <= n, since the members of a
    clique send point 0 to pairwise distinct points.
    """
    images = G.element_images()
    adj = _adjacency_bitsets(images, complement=False)
    return len(_bron_kerbosch(adj, len(images), ceiling=G.degree))


def exhaustive_max_coclique(G: PermGroup) -> int:
    """alpha of the derangement graph = maximum clique of the complement.

    First finds a clique C of the derangement graph (stopped at the degree,
    like ``exhaustive_max_clique``), on rows read off the complement rows.
    The coclique search then stops at floor(|G| / |C|): alpha * |C| <= |G|
    for any clique C of a vertex-transitive graph, maximum or not.
    """
    images = G.element_images()
    order = len(images)
    co_adj = _adjacency_bitsets(images, complement=True)
    full = (1 << order) - 1
    adj = [full & ~row & ~(1 << i) for i, row in enumerate(co_adj)]
    clique = _bron_kerbosch(adj, order, ceiling=G.degree)
    return len(_bron_kerbosch(co_adj, order, ceiling=order // len(clique)))


def _cyclic_subgroups(images: list[tuple[int, ...]], n: int) -> list[tuple[Permutation, frozenset]]:
    """(least generator, element set) of each non-trivial cyclic subgroup of order dividing n.

    The images must be sorted: then the first generator met of each cyclic
    subgroup is its least one.
    """
    identity = images[0]
    covered = set()
    out = []
    for g in images[1:]:
        if g in covered:
            continue
        powers = [g]
        times_g = times(g)
        while powers[-1] != identity:
            powers.append(times_g(powers[-1]))
        order = len(powers)
        covered.update(powers[k - 1] for k in range(1, order) if gcd(k, order) == 1)
        if n % order == 0:
            out.append((Permutation(g), frozenset(powers)))
    return out


def _join_cap(H: frozenset, Z: frozenset, divisors: list[int]) -> int | None:
    """The largest order a semiregular join of H and Z could have, or None.

    With Z not inside H, the join's order is a multiple of lcm(|H|, |Z|)
    exceeding |H| (Lagrange), and at least |H||Z| / |H meet Z|, the size of
    the product set HZ; a semiregular join's order also divides n. So the
    cap is the largest of the ``divisors`` of n that Lagrange allows,
    provided it is at least |HZ|.
    """
    h, z = len(H), len(Z)
    step = lcm(h, z)
    cap = max((d for d in divisors if d > h and d % step == 0), default=None)
    if cap is None or cap * len(H & Z) < h * z:
        return None
    return cap


def exhaustive_max_semiregular(G: PermGroup) -> int:
    """Largest semiregular subgroup by walking the subgroup lattice below the degree.

    The walk joins one cyclic subgroup of order dividing n at a time,
    through its least generator (the join depends only on the cyclic
    subgroup), closed from the generators of the path that reached the
    subgroup, and keeps the joins of order dividing n. Every semiregular
    subgroup is reached, through a chain of its own subgroups, which are
    semiregular too. A join is closed under the cap ``_join_cap`` gives it
    and skipped when there is none; two cyclic subgroups are joined in one
    order only, the later one to the earlier. Each newly reached subgroup
    is tested for semiregularity from the definition; the walk stops at
    one of order n, the degree.
    """
    n = G.degree
    divisors = [d for d in range(2, n + 1) if n % d == 0]
    cyclic = _cyclic_subgroups(G.element_images(), n)
    identity = tuple(range(n))

    def semiregular(H: frozenset) -> bool:
        return all(t == identity or all(i != j for i, j in enumerate(t)) for t in H)

    best = 1
    seen = set()
    # (subgroup, path of generators, first cyclic subgroup to join it with)
    frontier = []
    for i, (g, Z) in enumerate(cyclic):
        seen.add(Z)
        frontier.append((Z, [g], i + 1))
        if len(Z) > best and semiregular(Z):
            best = len(Z)
    while frontier and best < n:
        new = []
        for H, gens, start in frontier:
            for g, Z in cyclic[start:]:
                if g.images in H:
                    continue
                cap = _join_cap(H, Z, divisors)
                if cap is None:
                    continue
                path = gens + [g]
                closed = close_subgroup(path, n, cap)
                if closed is None or n % len(closed):
                    continue
                key = frozenset(p.images for p in closed)
                if key in seen:
                    continue
                seen.add(key)
                new.append((key, path, 0))
                if len(key) > best and semiregular(key):
                    best = len(key)
                    if best == n:
                        return n
        frontier = new
    return best
