"""The derangement graph of a transitive permutation group, kept implicit.

Vertices are group elements; g and h are adjacent when g h^-1 is a
derangement, which under the right-action convention happens exactly when
the image tuples of g and h disagree in every coordinate. The searches get
their rows from per-point masks (the vertices sending x to y, one bitset for
each pair of points), built with the first row a search asks for; a row is
built on first use and no |G| x |G| matrix is ever stored.

Searches operate on integer bitsets over an indexed vertex universe and are
deterministic: vertices are indexed in lexicographic order of their image
tuples and branching follows index order. There is one engine, a colouring
branch and bound over an explicit stack, so clique size meets no recursion
limit: ``max_clique`` runs it from the greedy clique of G's sorted
derangements up to the ceiling omega <= n (two clique members differ at
point 0), ``find_k_clique`` stops it at k vertices, and
``max_intersecting_family`` runs it on the complement. Where the greedy
reaches n, as on most groups, no mask or row is built. The clique searches
read G's derangements alone (for S_n a share near 1/e of its elements),
walked a coset at a time so that no element with a fixed point is built.
Once a clique of size n is known, the stabilizer of a point meets the
clique-coclique bound alpha * omega <= |G| and is read off the group's
stabilizer chain; only otherwise are the elements that fix a point built.

The certificate validators stay independent of the searches: they use
neither ``_LazyAdjacency`` nor the search functions nor ``oracles``, and
read the certificate's vertices alone. A set of permutations is a clique
exactly when no value repeats at any point, so the clique check takes one
set per point, and one small dict per point only to name the least
clashing pair. The coclique check accepts a family that is constant at
some point, a point stabilizer among them, in the same one pass; otherwise
it ORs, for every vertex, the per-point bitsets of its n (point, image)
pairs into the set of vertices it agrees with somewhere, O(m * n) big-int
ORs for m vertices, not a pairwise scan.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from operator import getitem, or_
from typing import ClassVar

from .group import DEFAULT_ELEMENT_BUDGET, DEFAULT_NODE_BUDGET, BudgetError, PermGroup
from .perm import Permutation, PermError, has_fixed_point


def derangement_set(G: PermGroup, budget: int = DEFAULT_ELEMENT_BUDGET) -> list[tuple[int, ...]]:
    """G's fixed-point-free elements, sorted image tuples (needs order <= budget).

    They are walked a coset D_r = {x : x[a] = r} at a time, and no element
    with a fixed point is built. Nothing is cached: each call walks G again.
    """
    if not G.is_transitive():
        raise PermError("derangement graphs are defined here for transitive groups")
    return G.element_images(budget, derangements=True)


def are_adjacent(g: Permutation, h: Permutation) -> bool:
    """True iff g h^-1 is a derangement, i.e. g and h disagree everywhere."""
    if g.degree != h.degree:
        raise PermError("degree mismatch in adjacency test")
    return all(a != b for a, b in zip(g.images, h.images))


def greedy_clique(images: Iterable[tuple[int, ...]], size: int) -> list[tuple[int, ...]]:
    """First fit: walk ``images`` once, keep each tuple that disagrees at
    every point with every tuple kept so far, and stop once ``size`` are kept.

    used[x][y] flags that a kept tuple sends x to y: a test costs O(n), and
    the n * n bytes hold no Python object per pair, an eighth of the n
    tuples of n entries on the first level of a transitive group's chain.
    """
    kept: list[tuple[int, ...]] = []
    if size < 1:
        return kept
    used: list[bytearray] = []
    for t in images:
        if not used:
            used = [bytearray(len(t)) for _ in t]
        if not any(map(getitem, used, t)):
            kept.append(t)
            if len(kept) == size:
                break
            for flags, y in zip(used, t):
                flags[y] = 1
    return kept


@dataclass
class _VertexCertificate:
    """A list of group elements; ``kind`` names the claim in its JSON."""

    vertices: list[Permutation]
    kind: ClassVar[str]

    @property
    def size(self) -> int:
        return len(self.vertices)

    def to_json_dict(self) -> dict:
        return {
            "type": self.kind,
            "degree": self.vertices[0].degree,
            "vertices": [list(v.images) for v in self.vertices],
        }


class CliqueCertificate(_VertexCertificate):
    kind = "clique"


class CocliqueCertificate(_VertexCertificate):
    kind = "coclique"


class CertificateError(ValueError):
    """A certificate failed independent re-validation."""


def _check_vertices(verts: list[Permutation], G: PermGroup | None,
                    require_identity: bool = False) -> None:
    """The per-vertex checks both validators share: a nonempty list of one
    degree, no duplicates, membership in G when given, and the identity
    when required."""
    if not verts:
        raise CertificateError("empty certificate")
    degree = verts[0].degree
    if G is not None and degree != G.degree:
        raise CertificateError(f"certificate degree {degree} differs from the group's {G.degree}")
    seen = set()
    for v in verts:
        if v.degree != degree:
            raise CertificateError(
                f"vertex {v!r} has degree {v.degree}, the first vertex {degree}"
            )
        if v.images in seen:
            raise CertificateError(f"duplicate vertex {v!r}")
        seen.add(v.images)
        if G is not None and not G.membership(v):
            raise CertificateError(f"vertex {v!r} is not a group member")
    if require_identity and tuple(range(degree)) not in seen:
        raise CertificateError("clique certificate must contain the identity")


def validate_clique(cert: CliqueCertificate, G: PermGroup | None = None,
                    require_identity: bool = True) -> None:
    """Re-check a clique certificate from the definition, one point at a time.

    A set of permutations is a clique exactly when no value repeats at any
    point, so m vertices pass when each point's set of values has m members.
    Only a failing list is scanned again to name a pair: at each point the
    first vertex holding a value pairs with every later holder j, and the
    error names the least such pair (i, j) over all points. That is the
    least pair i < j that agrees somewhere: if i were not the first holder
    at their common point, the first holder and i would make a smaller
    pair. Shares no logic with the searches or the oracles.
    """
    verts = cert.vertices
    _check_vertices(verts, G, require_identity)
    if all(len(set(column)) == len(verts) for column in zip(*(v.images for v in verts))):
        return
    clashes = []
    for column in zip(*(v.images for v in verts)):
        first: dict[int, int] = {}
        clashes += [(i, j) for j, y in enumerate(column) if (i := first.setdefault(y, j)) != j]
    if clashes:
        i, j = min(clashes)
        raise CertificateError(f"vertices agree at a point: {verts[i]!r} vs {verts[j]!r}")


def validate_coclique(cert: CocliqueCertificate, G: PermGroup | None = None) -> None:
    """Re-check an intersecting-family certificate from the definition.

    masks[x][y] is the bitset of certificate vertices v with v(x) = y, one
    dict per point, so the OR of vertex i's n masks is the set of vertices
    that agree with it somewhere, and a coclique needs that set to hold
    every vertex: O(m * n) big-int ORs for m vertices, not a pairwise scan.
    The error names the lowest missing j of the first failing i: that is
    the first pair i < j that disagrees everywhere, since a j < i would
    have failed at j already. A family whose vertices all agree at one point
    is intersecting, so a constant column of images accepts it at once: a
    point stabilizer passes in one pass. Shares no logic with the searches
    or the oracles.
    """
    verts = cert.vertices
    _check_vertices(verts, G)
    if any(len(set(column)) == 1 for column in zip(*(v.images for v in verts))):
        return
    masks: list[dict[int, int]] = [{} for _ in range(verts[0].degree)]
    for j, v in enumerate(verts):
        bit = 1 << j
        for mx, y in zip(masks, v.images):
            mx[y] = mx.get(y, 0) | bit
    full = (1 << len(verts)) - 1
    for v in verts:
        missing = full & ~reduce(or_, map(dict.__getitem__, masks, v.images))
        if missing:
            raise CertificateError(
                f"non-intersecting pair in coclique: {v!r} vs "
                f"{verts[(missing & -missing).bit_length() - 1]!r}"
            )


# -- bitset search engine -------------------------------------------------------


class _LazyAdjacency:
    """Adjacency rows over an indexed vertex list, built on first use.

    The first row builds the point masks: masks[x][y] is the bitset of
    vertices v with v(x) = y. A search that asks for no row builds none.
    Vertex i agrees with exactly the vertices in agree = OR over x of
    masks[x][g_i(x)], itself included. A derangement graph row is then
    universe & ~agree; a complement row (the vertices that share a point
    with g_i) is agree without bit i.
    """

    def __init__(self, images: Sequence[tuple[int, ...]], complement: bool = False):
        self.images = images
        self.complement = complement
        self.universe = (1 << len(images)) - 1
        self._rows: dict[int, int] = {}

    @cached_property
    def masks(self) -> list[list[int]]:
        # only row() reads the masks, so there is at least one vertex
        masks = [[0] * len(self.images[0]) for _ in self.images[0]]
        for j, img in enumerate(self.images):
            bit = 1 << j
            for mx, y in zip(masks, img):
                mx[y] |= bit
        return masks

    def row(self, i: int) -> int:
        cached = self._rows.get(i)
        if cached is not None:
            return cached
        agree = 0
        for mx, y in zip(self.masks, self.images[i]):
            agree |= mx[y]
        if self.complement:
            bits = agree & ~(1 << i)
        else:
            bits = self.universe & ~agree
        self._rows[i] = bits
        return bits


def _max_clique_search(adj: _LazyAdjacency, node_budget: int,
                       initial: list[int] | None = None,
                       stop_at: int | None = None) -> tuple[list[int], bool, int]:
    """Branch and bound with a greedy-coloring bound (Tomita style).

    Returns (best vertex list, closed, nodes) where closed means the search
    space was exhausted rather than the node budget, and nodes counts the
    nodes opened, the one that broke the budget included. With ``stop_at``
    the search returns as soon as the best clique has that many vertices;
    the clique it returns may be larger, since a branch runs on to a
    maximal clique.

    The search is depth first over an explicit stack, so no clique size
    meets a recursion limit. Each open node is a frame [P, coloured]: its
    candidate set P and P's vertices with their colours, sorted when the
    node opens and branched on from the last. A frame ends when that list
    is empty, when the best clique meets ``stop_at``, or when the colour
    bound shows that no branch can beat the best clique; the vertex that
    opened it then leaves ``chosen`` and the parent's P.
    """
    best = list(initial or [])
    nodes = 0
    chosen: list[int] = []
    stack: list[list] = [[adj.universe, None]]
    row = adj.row
    while stack:
        frame = stack[-1]
        P, coloured = frame
        if coloured is None:
            nodes += 1
            if nodes > node_budget:
                return best, False, nodes
            coloured = frame[1] = []
            # a warm start already at the ceiling needs no colour sort
            remaining = P if stop_at is None or len(best) < stop_at else 0
            colour = 0
            while remaining:
                colour += 1
                avail = remaining
                while avail:
                    v = (avail & -avail).bit_length() - 1
                    coloured.append((v, colour))
                    avail &= ~(row(v) | 1 << v)
                    remaining &= ~(1 << v)
        if (coloured and len(chosen) + coloured[-1][1] > len(best)
                and (stop_at is None or len(best) < stop_at)):
            v = coloured.pop()[0]
            chosen.append(v)
            newP = P & row(v)
            if newP:
                stack.append([newP, None])
                continue
            if len(chosen) > len(best):
                best = chosen.copy()
        else:
            stack.pop()
        if chosen:
            stack[-1][0] &= ~(1 << chosen.pop())
    return best, True, nodes


# -- public searches ------------------------------------------------------------


@dataclass
class CliqueSearchResult:
    status: str  # "found" | "none" | "unknown"
    certificate: CliqueCertificate | None
    nodes: int


def _identity_rooted(degree: int, images: Sequence[tuple[int, ...]],
                     indices: list[int]) -> list[Permutation]:
    """The identity, then the indexed vertices in index order: walk products, wrapped unchecked."""
    return [Permutation.identity(degree)] + [Permutation._trusted(images[i])
                                             for i in sorted(indices)]


def find_k_clique(G: PermGroup, k: int,
                  node_budget: int = DEFAULT_NODE_BUDGET,
                  element_budget: int = DEFAULT_ELEMENT_BUDGET) -> CliqueSearchResult:
    """Search for a k-clique in the derangement graph, rooted at the identity.

    Vertex-transitivity makes the identity rooting lossless: some maximum
    clique contains any given vertex. This is the maximum-clique search
    stopped at k vertices, so its colour bound can prove "none" at the root.
    A found certificate holds exactly k vertices: the identity and the k - 1
    lowest-indexed vertices of the clique the search returns.
    """
    if k < 1:
        raise PermError("k must be positive")
    if k == 1:
        return CliqueSearchResult("found", CliqueCertificate([Permutation.identity(G.degree)]), 0)
    adj = _LazyAdjacency(derangement_set(G, element_budget))
    best, closed, nodes = _max_clique_search(adj, node_budget, stop_at=k - 1)
    if len(best) < k - 1:
        return CliqueSearchResult("none" if closed else "unknown", None, nodes)
    cert = CliqueCertificate(_identity_rooted(G.degree, adj.images, sorted(best)[:k - 1]))
    validate_clique(cert)
    return CliqueSearchResult("found", cert, nodes)


@dataclass
class MaxSearchResult:
    """The best clique or coclique a maximum search found."""

    certificate: _VertexCertificate
    optimal: bool
    nodes: int


def max_clique(G: PermGroup,
               node_budget: int = DEFAULT_NODE_BUDGET,
               element_budget: int = DEFAULT_ELEMENT_BUDGET) -> MaxSearchResult:
    """Best clique found by branch and bound, identity-rooted, stopped at n.

    Two clique members differ at point 0, so omega <= n. The search starts
    from ``greedy_clique`` over the sorted derangements, stopped at n - 1.
    When the greedy reaches n - 1, the search opens only its root, with no
    colour sort, and no mask or row is built; otherwise it runs on from the
    greedy's clique. The optimality flag is True when the search closed
    within budget, a search stopped at the ceiling included.
    """
    images = derangement_set(G, element_budget)
    initial = [bisect_left(images, t) for t in greedy_clique(images, G.degree - 1)]
    adj = _LazyAdjacency(images)
    best, closed, nodes = _max_clique_search(adj, node_budget, initial, stop_at=G.degree - 1)
    cert = CliqueCertificate(_identity_rooted(G.degree, adj.images, best))
    validate_clique(cert)
    return MaxSearchResult(cert, closed, nodes)


def max_intersecting_family(G: PermGroup,
                            node_budget: int = DEFAULT_NODE_BUDGET,
                            element_budget: int = DEFAULT_ELEMENT_BUDGET,
                            clique_size_hint: int | None = None) -> MaxSearchResult:
    """Best intersecting family found, as a max clique of the complement graph.

    Rooted at the identity (lossless: translates of intersecting families are
    intersecting), warm-started with the stabilizer G_0 of point 0. When a
    clique of size w is known, alpha * w <= |G| closes the search early once
    the family reaches |G| / w. For a transitive G and w = n, G_0 already has
    |G| / n elements: it is read off the chain's level-0 walk (0 is the first
    base point of a transitive G) and returned sorted, the identity first,
    as the one node the search would open at its root; no other element is
    built. Otherwise the vertices are the non-identity elements that fix a
    point, filtered from G's sorted elements.
    """
    if clique_size_hint == G.degree and G.is_transitive():
        _, stabilizer = G.level_transversals(1, element_budget)
        cert = CocliqueCertificate(list(map(Permutation._trusted, sorted(stabilizer))))
        validate_coclique(cert)
        return MaxSearchResult(cert, True, 1)

    fixers = [t for t in G.element_images(element_budget)[1:]  # the identity sorts first
              if has_fixed_point(t)]
    adj = _LazyAdjacency(fixers, complement=True)
    # the stabilizer of 0 is intersecting and pairwise-compatible, a valid seed
    initial = [i for i, t in enumerate(fixers) if t[0] == 0]

    stop_at = None
    if clique_size_hint:
        stop_at = G.order() // clique_size_hint - 1  # excluding the identity root

    best, closed, nodes = _max_clique_search(adj, node_budget, initial=initial, stop_at=stop_at)
    cert = CocliqueCertificate(_identity_rooted(G.degree, fixers, best))
    validate_coclique(cert)
    # meeting the clique-coclique ceiling proves the family maximum
    optimal = closed or (stop_at is not None and len(best) >= stop_at)
    return MaxSearchResult(cert, optimal, nodes)


def clique_coclique_audit(clique: CliqueCertificate, coclique: CocliqueCertificate,
                          G: PermGroup) -> bool:
    """Independently validate both certificates and the product bound.

    Raises CertificateError naming the violation; returns True on success.
    """
    validate_clique(clique, G)
    validate_coclique(coclique, G)
    if clique.size * coclique.size > G.order():
        raise CertificateError(
            f"clique-coclique bound violated: {clique.size} * {coclique.size} > {G.order()}"
        )
    return True


# -- density --------------------------------------------------------------------


@dataclass
class DensityReport:
    group_name: str
    degree: int
    group_order: int
    stabilizer_order: int
    best_coclique: int | None
    best_clique: int | None
    coclique_optimal: bool
    clique_optimal: bool
    rho_lower: Fraction | None
    rho_upper: Fraction | None
    status: str  # "ok" | "unknown"
    clique_certificate: CliqueCertificate | None = None
    coclique_certificate: CocliqueCertificate | None = None

    def to_json_dict(self) -> dict:
        return {
            "group": self.group_name,
            "degree": self.degree,
            "order": self.group_order,
            "stabilizer_order": self.stabilizer_order,
            "best_coclique": self.best_coclique,
            "best_clique": self.best_clique,
            "coclique_optimal": self.coclique_optimal,
            "clique_optimal": self.clique_optimal,
            "rho_lower": str(self.rho_lower) if self.rho_lower is not None else None,
            "rho_upper": str(self.rho_upper) if self.rho_upper is not None else None,
            "status": self.status,
        }


def density_bounds(G: PermGroup,
                   node_budget: int = DEFAULT_NODE_BUDGET,
                   element_budget: int = DEFAULT_ELEMENT_BUDGET) -> DensityReport:
    """Two-sided intersection density bounds with embedded certificates.

    rho lies in [alpha / |G_x|, n / omega] for the best coclique and clique
    found; when the coclique search closes, alpha is exact and so is rho.
    """
    if not G.is_transitive():
        raise PermError("density bounds need a transitive group")
    stab = G.stabilizer_order()
    try:
        cl = max_clique(G, node_budget, element_budget)
        co = max_intersecting_family(G, node_budget, element_budget,
                                     clique_size_hint=cl.certificate.size)
    except BudgetError:
        return DensityReport(G.name, G.degree, G.order(), stab, None, None,
                             False, False, None, None, "unknown")
    rho_lower = Fraction(co.certificate.size, stab)
    # a closed coclique search makes alpha exact, so rho = alpha / |G_x|; the
    # audit's product bound keeps that at or below n / omega
    rho_upper = rho_lower if co.optimal else Fraction(G.degree, cl.certificate.size)
    clique_coclique_audit(cl.certificate, co.certificate, G)
    return DensityReport(G.name, G.degree, G.order(), stab,
                         co.certificate.size, cl.certificate.size,
                         co.optimal, cl.optimal, rho_lower, rho_upper, "ok",
                         cl.certificate, co.certificate)
