"""Fixed-point-free structure: semiregular elements and subgroups, elusiveness.

A subgroup is semiregular when its only element with a fixed point is the
identity; its order then divides the degree, which is what keeps the
subgroup searches here small. Elusiveness and the subgroup search read one
element census of the group: its derangement count, and the number and the
least element of its semiregular elements of each order. Cycle type is a
class function, so the census reads one coset D_r = {x : x[a] = r} per
suborbit of the stabilizer G_a of the least moved point a, weighted by the
suborbit's size: conjugation by G_a maps D_r onto D_j for every j in r's
suborbit. With r the least point of its suborbit, the least element of
each order lies in some D_r, so the witnesses are those of a scan of all of
G. The chain's first two base points are a and b, so D_r is {u_r∘t∘s}: t
in the level-1 transversal T of G_a, s in a walk of G_{a,b}. The coset
walk it reads, ``group.coset_derangements``, which the derangement graph
shares, keeps bitmasks over T, one per point and value and built once per
census, that give for each s at once the t for which u_r∘t∘s has a fixed
point. Only the derangements are built, and no element of G_a. Each gets
one cycle walk, which finds its order when all its cycles share a length.

The subgroup search first reads the census orders: the best cyclic subgroup
and the prime-part bound below come from them alone, and when they meet, as
on most catalog groups, nothing more is built. Otherwise it is a
breadth-first search that extends a semiregular subgroup by one cyclic
semiregular subgroup at a time. Every subgroup of a semiregular group is
semiregular, so every semiregular subgroup is reachable this way, and each
pruning below keeps a closed search exhaustive:

- one generator per cyclic subgroup: <K, p> = <K, q> whenever <p> = <q>;
- one root per G-conjugacy class of cyclic subgroups: conjugation preserves
  order and semiregularity, and a conjugate of any nontrivial semiregular
  subgroup contains a root;
- inherited failures: a subgroup containing K takes no q whose join with K
  is not semiregular, since its own join with q would contain that one;
- a stop at the prime-part bound: the product of p^{v_p(n)} over the primes
  p | n that divide the order of some semiregular element. A semiregular
  subgroup of order divisible by p holds a semiregular element of order p,
  and its order divides n;
- Sylow exclusions below that bound: an order d is ruled out when some
  prime p exactly divides d and |G| but not |G_x|, every group of order d
  has a normal Sylow p-subgroup, and d does not divide |N_G(P)|, which the
  census gives for P of order p. A subgroup of order d would lie in the
  normalizer of its Sylow p-subgroup, a conjugate of P. The excluded orders
  are recorded, and a ``semiregular-bound`` certificate restates them for
  a checker that recomputes |N_G(P)| without the census.

A join is built by coset extension from K, and each new coset rK is tested
whole: some r∘k has a fixed point exactly when r sends some point v into
v's own K-orbit. So a coset's elements are built only once it has passed.

Everything the search reads is built only as far as it reads it. The
semiregular images stream in increasing order, one coset D_j at a time,
conjugated from the census's D_r by elements of G_a built on the first
read; the cyclic subgroups are drawn from that stream into one buffer that
every reader shares; and a root's conjugacy class is fused only when the
search asks for the next root. A search that meets its bound inside the
first root's candidate loop, as most do, builds a small share of the
images and fuses no class.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from copy import copy
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product, tee
from math import gcd, lcm
from operator import eq

from .group import (
    DEFAULT_ELEMENT_BUDGET,
    DEFAULT_NODE_BUDGET,
    BlockSystem,
    BudgetError,
    PermGroup,
    block_image,
    close_subgroup,
    coset_derangements,
    orbit_transversal,
    reduce_generators,
)
from .numth import factorize, is_prime
from .perm import Permutation, PermError, compose, has_fixed_point, inverse, is_derangement, times


@dataclass
class SemiregularWitness:
    group_name: str
    generators: list[Permutation]
    order: int
    method: str  # order-coprime | cyclic-scan | backtrack | lifted | catalog

    def to_json_dict(self) -> dict:
        return {
            "type": "semiregular",
            "group": self.group_name,
            "degree": self.generators[0].degree,
            "order": self.order,
            "method": self.method,
            "generators": [list(g.images) for g in self.generators],
        }


class WitnessError(ValueError):
    """A semiregular witness failed re-verification."""


def common_cycle_length(images: tuple[int, ...]) -> int | None:
    """The one length all cycles of an image tuple share (its order), or None."""
    seen = [False] * len(images)
    length = 0
    for start in range(len(images)):
        if seen[start]:
            continue
        k, j = 0, start
        while not seen[j]:
            seen[j] = True
            j = images[j]
            k += 1
        if length and k != length:
            return None
        length = k
    return length


def is_semiregular_element(p: Permutation) -> bool:
    """True iff all cycles of p share one length, i.e. <p> is semiregular."""
    return common_cycle_length(p.images) is not None


def _semiregular_order(gens, degree: int) -> int:
    """|<gens>|, or WitnessError if <gens> is not semiregular: the checkers' one test.

    One generator is semiregular of order m iff all its cycles have length m.
    Several are closed up to ``degree`` elements, as a semiregular group's
    orbits are regular. A generator of another degree raises PermError.
    """
    if len(gens) == 1:
        g = gens[0]
        if g.degree != degree:
            raise PermError(f"generator degree {g.degree} != subgroup degree {degree}")
        lengths = sorted({len(cycle) for cycle in g.cycles()})
        if len(lengths) > 1:
            raise WitnessError(f"{g!r} has cycles of lengths {lengths}, so it is not semiregular")
        return lengths[0]
    elems = close_subgroup(gens, degree, degree)
    if elems is None:
        raise WitnessError(
            f"witness subgroup has more than {degree} elements, so it is not semiregular")
    for p in elems[1:]:  # the identity sorts first
        if has_fixed_point(p.images):
            raise WitnessError(f"non-identity member {p!r} fixes a point")
    return len(elems)


def is_semiregular_subgroup(H_gens, degree: int) -> bool:
    """True iff every non-identity element of <H_gens> is a derangement; builds no chain."""
    try:
        _semiregular_order(H_gens, degree)
    except WitnessError:
        return False
    return True


def validate_semiregular(witness: SemiregularWitness, degree: int) -> None:
    """Re-verify a witness from the definition; an empty one is refused before any work."""
    if not witness.generators:
        raise WitnessError("witness has no generators")
    for g in witness.generators:
        if g.degree != degree:
            raise WitnessError(f"generator {g!r} has degree {g.degree}, not {degree}")
    if (order := _semiregular_order(witness.generators, degree)) != witness.order:
        raise WitnessError(f"witness order {witness.order} != enumerated {order}")


def semiregular_primes(G: PermGroup) -> set[int]:
    """Primes p | |G| with p coprime to the point stabilizer order.

    For such p every element of order p is a derangement and every
    p-subgroup is semiregular.
    """
    if not G.is_transitive():
        raise PermError("semiregular_primes needs a transitive group")
    stab = G.stabilizer_order()
    return {p for p in factorize(G.order()) if stab % p != 0}


@dataclass
class ElusivenessReport:
    group_name: str
    elusive: bool | None  # None = undecided within budget
    witness: Permutation | None
    witness_order: int | None
    primes_checked: list[int]
    note: str = ""

    def to_json_dict(self) -> dict:
        return {
            "group": self.group_name,
            "elusive": self.elusive,
            "witness": list(self.witness.images) if self.witness else None,
            "witness_order": self.witness_order,
            "primes_checked": self.primes_checked,
            "note": self.note,
        }


@dataclass(frozen=True)
class Suborbit:
    """The semiregular elements of one coset D_r = {x in G : x[a] = r}.

    ``point`` is r, the least point of its G_a-orbit, and ``elements`` holds
    the non-identity semiregular image tuples of D_r. They come in the order
    of G_a's walk: u_r∘t∘s for each s of the walk of G_{a,b}, then each t of
    the level-1 transversal by increasing point.
    """
    point: int
    elements: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ElementCensus:
    """G's derangements and semiregular elements, read off one coset per suborbit.

    ``by_order[m]`` is (the number of non-identity semiregular elements of
    order m, the lexicographically least one), in increasing m.
    ``stabilizer`` is G_a on its generators, which conjugate each D_r onto
    the rest of its suborbit.
    """
    derangements: int
    by_order: dict[int, tuple[int, tuple[int, ...]]]
    suborbits: tuple[Suborbit, ...]
    stabilizer: PermGroup | None = None

    @property
    def semiregular_count(self) -> int:
        return sum(count for count, _ in self.by_order.values())

    def semiregular_images(self) -> Iterator[tuple[int, ...]]:
        """Every non-identity semiregular image, in increasing order, one coset at a time.

        Every element fixes the points below a, so images first differ at a,
        and the coset D_j = {x : x[a] = j} comes whole before D_k for j < k.
        D_j is h D_r h^-1 for h in G_a with h[r] == j, y[h[i]] = h[x[i]].
        The conjugators h are the transversals of the suborbits that hold
        semiregular elements, built on the first read; each h^-1 is built,
        and each coset built and sorted, only when the reader reaches it.
        """
        S = self.stabilizer
        cosets = sorted((j, h, sub.elements)
                        for sub in self.suborbits if sub.elements
                        for j, h in orbit_transversal(sub.point, S.generators, S.degree).items())
        for _, h, elements in cosets:
            h, times_h_inv = h.images, times(inverse(h).images)
            yield from sorted(times(times_h_inv(x))(h) for x in elements)


@lru_cache(maxsize=1)
def element_census(G: PermGroup, element_budget: int) -> ElementCensus:
    """The census of G: derangements, semiregular counts and least elements.

    Let a be the least point G moves and D_j = {x in G : x[a] = j}. For h
    in G_a, x -> h x h^-1 (y[h[i]] = h[x[i]]) maps D_j onto D_{h[j]} and
    keeps the cycle type, so D_j and D_{h[j]} hold as many derangements and
    as many semiregular elements of each order. Every derangement lies in
    some D_j with j != a, so the counts are read off one coset D_r per
    suborbit (G_a-orbit of a point r != a in a's G-orbit), weighted by the
    size of the suborbit. The suborbits are the orbits of G_a, on its strong
    generators below level 0, and each r is the least point of its
    suborbit. Every element fixes the points below a, so image tuples first
    differ at a: the least element of order m lies in the D_j with the
    least j that has one, a union of suborbits, so that j is some r and
    every witness is the least of its order in G, as in a scan of the whole
    group.

    The cosets come from ``coset_derangements``, which builds only their
    derangements, off per-point bitmasks over the chain's level-1
    transversal; each gets one cycle walk. The cosets run outermost, so each
    coset's heads are dropped before the next. No h in G_a is built here:
    the census keeps G_a's generators, and
    ``ElementCensus.semiregular_images`` conjugates with them only when it
    is read.

    Raises BudgetError when |G| exceeds the budget. Only the latest group's
    census is kept: a larger cache would hold the semiregular elements of
    every group its callers keep alive.
    """
    _, deranged = coset_derangements(G, element_budget)
    if G.order() == 1:
        return ElementCensus(0, {}, ())
    a, gens, transversal = G.base_stabilizer()

    # the suborbits: the G_a-orbits in a's G-orbit but a's own, each sorted
    stabilizer = PermGroup(gens, G.degree)
    orbits = [orbit for orbit in stabilizer.orbits() if orbit[0] in transversal and orbit[0] != a]

    count = 0
    by_order: dict[int, tuple[int, tuple[int, ...]]] = {}
    suborbits = []
    for orbit in orbits:  # D_r for the least point r of each, weighted by its size
        r, weight, elements = orbit[0], len(orbit), []
        for x in deranged(r):
            count += weight
            m = common_cycle_length(x)
            if m is not None:
                elements.append(x)
                total, least = by_order.get(m, (0, x))
                by_order[m] = (total + weight, min(least, x))
        suborbits.append(Suborbit(r, tuple(elements)))
    return ElementCensus(count, dict(sorted(by_order.items())), tuple(suborbits), stabilizer)


def is_elusive(G: PermGroup,
               element_budget: int = DEFAULT_ELEMENT_BUDGET) -> ElusivenessReport:
    """Search the elements of prime order for a derangement.

    Elusive means no fixed-point-free element of prime order exists. Such an
    element is a derangement exactly when it is semiregular, so the witness
    is the lexicographically least semiregular element of prime order: the
    least of the census's least elements of each prime order.
    """
    primes = sorted(factorize(G.order()))
    try:
        census = element_census(G, element_budget)
    except BudgetError:
        return ElusivenessReport(G.name, None, None, None, primes,
                                 "order exceeds enumeration budget")
    least = min(((x, m) for m, (_, x) in census.by_order.items() if is_prime(m)), default=None)
    if least is None:
        return ElusivenessReport(G.name, True, None, None, primes)
    return ElusivenessReport(G.name, False, Permutation(least[0]), least[1], primes)


# -- maximum semiregular order --------------------------------------------------


def _orbit_labels(elems: list[tuple[int, ...]]) -> list[int]:
    """Each point's label: the least point of its orbit under the group ``elems``."""
    return list(map(min, zip(*elems)))


def _coset_has_fixed_point(r: tuple[int, ...], label: list[int]) -> bool:
    """Whether some r∘k, k in the group K that ``label`` labels, fixes a point.

    r∘k has images r[k[i]] and fixes i exactly when k sends i to v with
    r[v] == i, which some k does exactly when r[v] lies in v's K-orbit.
    """
    return any(map(eq, map(label.__getitem__, r), label))


def _extend_semiregular(elems: list[tuple[int, ...]], label: list[int],
                        gen_images: list[tuple[int, ...]],
                        q: tuple[int, ...], cap: int) -> list[tuple[int, ...]] | None:
    """<K, q> by coset extension from K, or None unless it stays semiregular.

    ``elems`` lists a semiregular subgroup K, identity first, and ``label``
    is ``_orbit_labels(elems)``; ``gen_images`` generate K and q lies outside
    it. The join is grown Dimino-style as a union of cosets rK: a product
    s r (s a generator of <K, q>, r a coset representative) outside the
    union so far brings in its whole coset, and the union is a group once
    every such product lies in it.

    A new coset is tested whole, before it is built: some element of rK
    has a fixed point exactly when r sends some point v into v's own
    K-orbit (``_coset_has_fixed_point``), and none is the identity, r being
    outside K. The routine returns None at the first such coset, or when
    the join would exceed ``cap`` elements. The coset qK, which rejects most
    candidates, is tested before K is copied. The returned list starts with
    K's elements.
    """
    if _coset_has_fixed_point(q, label):
        return None
    members = set(elems)
    out = list(elems)
    times_elems = list(map(times, elems))
    gens = [*gen_images, q]
    todo = [q]
    while todo:
        r = todo.pop()
        if r in members:
            continue
        if len(out) + len(elems) > cap or _coset_has_fixed_point(r, label):
            return None
        coset = [times_k(r) for times_k in times_elems]
        members.update(coset)
        out.extend(coset)
        todo.extend(map(times(r), gens))
    return out


def _forces_normal_sylow(d: int, p: int) -> bool:
    """Whether p exactly divides d and every group of order d has a normal C_p.

    By Sylow the number of Sylow p-subgroups divides d/p and is 1 mod p, so
    it is 1 when no divisor t > 1 of d/p is 1 mod p.
    """
    m, r = divmod(d, p)
    return r == 0 and m % p != 0 and not any(m % t == 0 for t in range(p + 1, m + 1, p))


def _powers(p: tuple[int, ...], identity: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The cyclic group <p>, identity first: 1, p, p^2, ..., p^(m-1), m = |p|."""
    powers = [identity]
    times_p = times(p)  # powers of p commute: x∘p == p∘x
    x = p
    while x != identity:
        powers.append(x)
        x = times_p(x)
    return powers


def _generators(powers: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The generators of the cyclic group that ``_powers`` lists: p^k, k coprime to m."""
    m = len(powers)
    return [x for k, x in enumerate(powers) if gcd(k, m) == 1]


def _cyclic_subgroups(images: Iterator[tuple[int, ...]], identity: tuple[int, ...]):
    """(least generator p, ``_powers(p)``) of each cyclic subgroup, by increasing p.

    ``images`` yields every non-identity semiregular element once, in
    increasing order, so an image is its subgroup's least generator exactly
    when no earlier least generator's generators have claimed it. Every
    power of a semiregular element is semiregular, so the powers need no
    fixed-point test.
    """
    claimed: set[tuple[int, ...]] = set()
    for p in images:
        if p in claimed:
            claimed.remove(p)
            continue
        powers = _powers(p, identity)
        claimed.update(_generators(powers))
        claimed.remove(p)
        yield p, powers


def _roots(cyclic, conjugators, identity: tuple[int, ...]):
    """The least cyclic subgroup of each G-conjugacy class, as ``cyclic`` lists it.

    A root's class is fused only when the next root is asked for: the
    subgroups reached from it by conjugation with G's generators, each
    named by its least generator. The next root is the next subgroup in
    ``cyclic`` that no fused class holds.
    """
    seen: set[tuple[int, ...]] = set()
    for p, elems in cyclic:
        if p in seen:
            continue
        yield p, elems
        seen.add(p)
        stack = [p]
        while stack:
            x = stack.pop()
            for times_g, g_inv in conjugators:
                y = times(times_g(x))(g_inv)
                y = min(_generators(_powers(y, identity)))
                if y not in seen:
                    seen.add(y)
                    stack.append(y)


@dataclass
class MaxSemiregularResult:
    witness: SemiregularWitness
    optimal: bool
    nodes: int  # extension attempts
    semiregular_element_count: int = 0
    # order d -> (p, x): G has no subgroup of order d by the Sylow argument at
    # the prime p, and x, the least element of order p, generates a Sylow
    # p-subgroup
    excluded: dict[int, tuple[int, Permutation]] = field(default_factory=dict)


def max_semiregular_order(G: PermGroup,
                          element_budget: int = DEFAULT_ELEMENT_BUDGET,
                          node_budget: int = DEFAULT_NODE_BUDGET) -> MaxSemiregularResult:
    """Largest semiregular subgroup found, with provenance.

    Search order, cheapest first:

    - The prime-part bound and the best cyclic subgroup, from the census
      orders alone. A semiregular order divides the degree n, and its p-part
      is 1 for every prime p that divides no semiregular element's order: a
      semiregular subgroup of order divisible by p holds an element of order
      p, which is semiregular. The best cyclic subgroup is generated by the
      least semiregular element of the largest order. If its order meets
      the bound, it is returned at once, with no search node.
    - Sylow exclusions lower the bound to the largest divisor of it, above
      the best cyclic order, that G may hold a subgroup of. A divisor d is
      excluded by a prime p that exactly divides d and |G| but not |G_x|
      when every group of order d has a normal Sylow p-subgroup
      (``_forces_normal_sylow``) and d does not divide |N_G(P)|. Every
      element of order p is then semiregular, so the census counts them,
      and the Sylow p-subgroups, all conjugate C_p, number that count over
      p - 1: |N_G(P)| = |G| (p - 1) / count. A subgroup of order d would lie
      in the normalizer of its Sylow p-subgroup, a conjugate of P, so none
      exists. The excluded orders, their primes and an element of each
      prime's order are recorded in ``excluded``; if the bound falls to the
      best cyclic order, that is returned at once.
    - Every cyclic subgroup, by its least generator, drawn in increasing
      order from the semiregular images that the census streams one coset
      at a time (``ElementCensus.semiregular_images``), and only as far as
      the search reads; an extension joins only that generator, since
      <K, p> = <K, q> whenever <p> = <q>.
    - A breadth-first search over semiregular subgroups extended one cyclic
      subgroup at a time, from one cyclic subgroup per G-conjugacy class.
      Conjugation preserves order and semiregularity, and every nontrivial
      semiregular H contains a cyclic subgroup C; if C^g is the root of C's
      class then H^g contains it and is reached from it. The first root is
      the first cyclic subgroup, and each root's class is fused, by
      conjugating with G's generators, only when the search asks for the
      next root. Every root is expanded before any child, as if all were
      queued first: a child of an earlier root that is a later root's
      subgroup is expanded as that root, with every candidate.

    Each pruning of the search keeps it exact:

    - A child tries only the generators whose join with its parent was
      semiregular: if <K, q> is not semiregular, no <K', q> with K' >= K is,
      since it contains <K, q> and subgroups of semiregular groups are
      semiregular. A subgroup reached from several parents keeps the first
      list; each parent's list holds every q the subgroup can take.
    - A join is abandoned once it outgrows the bound, and the search stops
      once the best order meets it: no semiregular subgroup is larger.
    - A candidate q whose coset qK holds a fixed point is rejected by the
      join's first coset test, before any element is built; the test reads
      the K-orbit labels of the node, computed once per node.

    Each extension attempt is one node against ``node_budget``. The
    optimality flag is set when the best order meets the bound, lowered by
    the Sylow exclusions, or when the census was complete and the search
    exhausted its frontier within the node budget; a capped run reports the
    best witness found, never a negative claim.
    """
    n = G.degree
    best = SemiregularWitness(G.name, [Permutation.identity(n)], 1, "cyclic-scan")
    nodes = 0
    try:
        census = element_census(G, element_budget)
    except BudgetError:
        return MaxSemiregularResult(best, False, nodes)
    by_order = census.by_order
    count = census.semiregular_count

    # the prime-part bound: a semiregular subgroup of order divisible by p
    # holds a semiregular element of order p
    bound = 1
    for p, e in factorize(n).items():
        if any(m % p == 0 for m in by_order):
            bound *= p ** e
    # the best cyclic subgroup: generated by the least element of largest order
    if by_order:
        top = max(by_order)
        coprime = semiregular_primes(G) if G.is_transitive() else set()
        method = "order-coprime" if top in coprime else "cyclic-scan"
        best = SemiregularWitness(G.name, [Permutation(by_order[top][1])], top, method)
    if best.order == bound:
        return MaxSemiregularResult(best, True, nodes, count)

    # Sylow exclusions: for p exactly dividing |G| and not |G_x|, the census
    # counts every element of order p, and they generate the Sylow p-subgroups
    group_order = G.order()
    normalizers = {p: group_order * (p - 1) // by_order[p][0]
                   for p in sorted(coprime) if group_order % (p * p)}
    excluded: dict[int, tuple[int, Permutation]] = {}
    for d in range(bound, best.order, -1):
        if bound % d:
            continue
        p = next((p for p, size in normalizers.items()
                  if size % d and _forces_normal_sylow(d, p)), None)
        if p is None:
            bound = d
            break
        excluded[d] = (p, Permutation(by_order[p][1]))
    else:
        bound = best.order
    if best.order == bound:
        return MaxSemiregularResult(best, True, nodes, count, excluded)

    # the search: every root, then their descendants in breadth-first order
    identity = tuple(range(n))
    # every reader of the cyclic subgroups is a copy of this tee iterator,
    # which never advances itself: the readers share one buffer, so the
    # stream is drawn once, and only as far as the furthest reader
    cyclic, = tee(_cyclic_subgroups(census.semiregular_images(), identity), 1)
    conjugators = [(times(g.images), inverse(g).images) for g in G.generators]
    # every element the search meets is stored once, in ``elements``, and a
    # node is keyed by the sorted indices of its elements, the identity's 0 first
    ids = {identity: 0}
    elements = [identity]

    def intern(elems: list[tuple[int, ...]]) -> tuple[int, ...]:
        for x in elems:
            if x not in ids:
                ids[x] = len(elements)
                elements.append(x)
        return tuple(sorted(map(ids.__getitem__, elems)))

    visited: set[tuple[int, ...]] = set()
    queue: deque = deque()

    def frontier():
        # (generators, key, candidates) of each node
        superseded = set()
        for p, elems in _roots(copy(cyclic), conjugators, identity):
            key = intern(elems)
            if key in visited:  # a child of an earlier root, searched as this root instead
                superseded.add(key)
            visited.add(key)
            yield [p], key, (q for q, _ in copy(cyclic))
        while queue:
            gens, key, candidates = queue.popleft()
            if key not in superseded:
                yield gens, key, candidates

    for gens, key, candidates in frontier():
        elems = list(map(elements.__getitem__, key))
        members = set(elems)
        label = _orbit_labels(elems)
        joinable: list[tuple[int, ...]] = []
        children = []
        for q in candidates:
            if q in members:
                continue
            nodes += 1
            if nodes > node_budget:
                return MaxSemiregularResult(best, False, nodes, count, excluded)
            joined = _extend_semiregular(elems, label, gens, q, bound)
            if joined is None:
                continue
            joinable.append(q)
            child = intern(joined)
            if child in visited:
                continue
            visited.add(child)
            children.append((gens + [q], child))
            if len(joined) > best.order:
                best = SemiregularWitness(G.name, [Permutation(g) for g in gens + [q]],
                                          len(joined), "backtrack")
                if best.order == bound:
                    return MaxSemiregularResult(best, True, nodes, count, excluded)
        queue.extend((*child, joinable) for child in children)

    return MaxSemiregularResult(best, True, nodes, count, excluded)


# -- Sylow exclusion certificates ------------------------------------------------


@dataclass
class SemiregularBoundCertificate:
    """G holds no subgroup of each excluded order d, by a Sylow argument at p.

    Each exclusion is (d, p, x) with x an element of G of order p.
    """
    group_name: str
    generators: list[Permutation]
    order: int
    exclusions: list[tuple[int, int, Permutation]]

    def to_json_dict(self) -> dict:
        return {
            "type": "semiregular-bound",
            "group": self.group_name,
            "degree": self.generators[0].degree,
            "order": self.order,
            "generators": [list(g.images) for g in self.generators],
            "exclusions": [{"excluded_order": d, "prime": p, "element": list(x.images)}
                           for d, p, x in self.exclusions],
        }


def semiregular_bound_certificate(G: PermGroup,
                                  result: MaxSemiregularResult) -> SemiregularBoundCertificate:
    """The exclusions of a search as a certificate."""
    return SemiregularBoundCertificate(
        G.name, list(G.generators), G.order(),
        [(d, p, x) for d, (p, x) in result.excluded.items()])


def validate_semiregular_bound(cert: SemiregularBoundCertificate, degree: int) -> None:
    """Independent re-check that G has no subgroup of any excluded order.

    Reads |G| and membership off a stabilizer chain of the certificate's
    generators, never the census or the search. For each (d, p, x): p is a
    prime exactly dividing |G|, so P = <x> of order p is a Sylow p-subgroup
    and every other is conjugate to it; d divides |G|, as a subgroup order
    must, which also bounds the trial division; p exactly divides d and no t > 1
    dividing d/p is 1 mod p, so a subgroup of order d has one Sylow
    p-subgroup, normal in it, and lies in a conjugate of N_G(P). Its order
    |G| / |P^G| is read off the conjugates of P, found by a breadth-first
    walk under the generators, and d must not divide it.
    """
    if not cert.generators:
        raise WitnessError("certificate has no generators")
    for g in [*cert.generators, *(x for _, _, x in cert.exclusions)]:
        if g.degree != degree:
            raise WitnessError(f"permutation {g!r} has degree {g.degree}, not {degree}")
    G = PermGroup(cert.generators, degree)
    if G.order() != cert.order:
        raise WitnessError(f"certificate order {cert.order} != group order {G.order()}")
    identity = tuple(range(degree))

    def subgroup_key(y: tuple[int, ...]) -> tuple[int, ...]:
        # <y> is named by its least non-identity element
        key, z = y, tuple(y[i] for i in y)
        while z != identity:
            key = min(key, z)
            z = tuple(y[i] for i in z)
        return key

    for d, p, x in cert.exclusions:
        if not is_prime(p) or cert.order % p or cert.order % (p * p) == 0:
            raise WitnessError(f"{p} is no prime exactly dividing |G| = {cert.order}")
        if d < 1 or cert.order % d:
            raise WitnessError(f"{d} does not divide |G| = {cert.order}")
        m, r = divmod(d, p)
        if r or m % p == 0:
            raise WitnessError(f"{p} does not exactly divide {d}")
        t = next((t for t in range(p + 1, m + 1, p) if m % t == 0), None)
        if t is not None:
            raise WitnessError(f"a group of order {d} may have {t} Sylow {p}-subgroups, "
                               f"so none need be normal")
        if x not in G:
            raise WitnessError(f"element {x!r} does not lie in G")
        if x.order() != p:
            raise WitnessError(f"element {x!r} has order {x.order()}, not {p}")
        seen = {subgroup_key(x.images)}
        frontier = [x.images]
        while frontier:
            new_frontier = []
            for y in frontier:
                for g in cert.generators:
                    # y relabelled by g: i -> j becomes g[i] -> g[j]
                    conjugate = [0] * degree
                    for i, j in enumerate(y):
                        conjugate[g.images[i]] = g.images[j]
                    key = subgroup_key(tuple(conjugate))
                    if key not in seen:
                        seen.add(key)
                        new_frontier.append(key)
            frontier = new_frontier
        normalizer = cert.order // len(seen)
        if normalizer % d == 0:
            raise WitnessError(f"{d} divides |N_G(P)| = {normalizer}")


# -- block lifting ---------------------------------------------------------------


def lift_semiregular(G: PermGroup, system: BlockSystem, Xbar_gens: list[Permutation],
                     element_budget: int = DEFAULT_ELEMENT_BUDGET) -> SemiregularWitness:
    """Pull a semiregular group of block permutations back through the block map.

    The preimage contains the kernel of the block action; when the ambient
    group has a transitive minimal normal subgroup the preimage is again
    semiregular on points. That hypothesis is not checkable here, so the
    output is re-verified and a failure is reported as such.
    """
    if system.degree != G.degree:
        raise PermError("block system degree mismatch")
    if not is_semiregular_subgroup(Xbar_gens, system.num_blocks):
        raise PermError("the block subgroup is not semiregular on the blocks")
    Xbar = PermGroup(Xbar_gens, system.num_blocks)
    preimage = [g for g in G.elements(element_budget) if block_image(g, system) in Xbar]
    gens = reduce_generators(sorted(preimage), G.degree, len(preimage))
    witness = SemiregularWitness(G.name, gens, len(preimage), "lifted")
    validate_semiregular(witness, G.degree)
    return witness


# -- product actions --------------------------------------------------------------


def _cycle_products(h_list: list[Permutation], a: Permutation):
    """Each cycle of a with the ordered product of the h's around it."""
    if a.degree != len(h_list):
        raise PermError("coordinate permutation degree must match the h list")
    for cyc in a.cycles():
        prod = h_list[cyc[0]]
        for j in cyc[1:]:
            prod = compose(prod, h_list[j])
        yield cyc, prod


def product_action_fpf(h_list: list[Permutation], a: Permutation) -> bool:
    """Fixed-point-freeness of (h_1, ..., h_k)a on Delta^k, without expanding it.

    A point is fixed iff around every cycle of a the ordered product of the
    h's admits a fixed point on Delta, so the element is fixed-point-free
    iff some cycle product is a derangement.
    """
    return any(is_derangement(prod) for _, prod in _cycle_products(h_list, a))


def product_action_order(h_list: list[Permutation], a: Permutation) -> int:
    """Order of (h_1, ..., h_k)a in the product action."""
    return lcm(*(len(cyc) * prod.order() for cyc, prod in _cycle_products(h_list, a)))


def product_action_perm(h_list: list[Permutation], a: Permutation) -> Permutation:
    """Materialize (h_1, ..., h_k)a as a permutation of Delta^k (small k only).

    Point t = (t_0, ..., t_{k-1}) has index sum of t_j * delta^(k-1-j), and
    coordinate j of t lands at position a[j] as h_j[t_j]. The image index
    is thus a sum of one term per coordinate, and the images, in the order
    of the points, are the sums over the product of the coordinates' terms.
    """
    delta = h_list[0].degree
    k = a.degree
    parts = [[v * delta ** (k - 1 - a.images[j]) for v in h_list[j].images] for j in range(k)]
    return Permutation(map(sum, product(*parts)))


def wreath_elusive_check(base: PermGroup, top: PermGroup,
                         element_budget: int = DEFAULT_ELEMENT_BUDGET) -> ElusivenessReport:
    """Elusiveness of base wr top in product action, via cycle-product reduction.

    A prime-order element of the wreath product is fixed-point-free only if
    some coordinate sitting at a fixed point of the top part carries a
    fixed-point-free prime-order base element (products around longer top
    cycles are forced to be the identity by the order constraint). Hence the
    product action is elusive iff the base action is, and the check never
    touches the |Delta|^k domain.
    """
    kappa = top.degree
    name = f"{base.name or 'base'} wr {top.name or 'top'} (product action)"
    wreath_order = base.order() ** kappa * top.order()
    primes = sorted(factorize(wreath_order))
    base_report = is_elusive(base, element_budget)
    if base_report.elusive is None:
        return ElusivenessReport(name, None, None, None, primes,
                                 "base elusiveness undecided within budget")
    if base_report.elusive:
        return ElusivenessReport(name, True, None, None, primes,
                                 "no prime-order derangement in any coordinate slot")
    h = base_report.witness
    h_list = [h] + [Permutation.identity(base.degree)] * (kappa - 1)
    a = Permutation.identity(kappa)
    if not product_action_fpf(h_list, a):
        raise WitnessError("the placed base witness has a fixed point in the product action")
    witness = None
    if base.degree ** kappa <= 1_000_000:
        witness = product_action_perm(h_list, a)
        if not is_derangement(witness):
            raise WitnessError(f"expanded witness {witness!r} fixes a point")
    return ElusivenessReport(name, False, witness, base_report.witness_order, primes,
                             "base witness placed in the first coordinate")
