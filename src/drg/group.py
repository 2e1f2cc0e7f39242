"""Permutation groups backed by a deterministic stabilizer chain.

The chain (base and strong generating set) is built once, on demand, by a
deterministic Schreier-Sims. The first base point is the least point that
any generator moves; later ones are chosen greedily as the smallest point
moved by a remaining strong generator. All bookkeeping iterates points in
increasing order, so two builds from the same generator list agree element
for element. Every enumeration of the group reads one walk off the chain,
``level_transversals``: the transversals of the first few levels and a walk
of the stabilizer of their base points, whose products are the elements.
``iter_images`` streams the products u∘p of the level-0 transversal and the
walk of the first base point's stabilizer. ``coset_derangements`` reads the
same walk two levels deep and builds only the derangements, one coset
D_r = {x : x[a] = r} of the first base point a at a time; the element
census and the derangement graph both read it.

A coset action keys each coset H r by its lexicographically least image
tuple, read off a compressed trie of H's sorted image tuples with one choice
per branching node; ``CosetAction`` says why that choice is the least.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain, groupby, repeat
from operator import itemgetter, or_

from .perm import Permutation, PermError, compose, has_fixed_point, inverse, times

DEFAULT_ELEMENT_BUDGET = 200_000
DEFAULT_DEGREE_BUDGET = 10_000
DEFAULT_NODE_BUDGET = 200_000


class BudgetError(RuntimeError):
    """A configured enumeration or degree budget would be exceeded."""


class _ChainLevel:
    """One level of the stabilizer chain.

    ``added`` holds the strong generators filed at this level (those moving
    this base point while fixing all earlier ones); the generating set of the
    level-i stabilizer is the union of ``added`` over levels >= i.
    ``transversal[x]`` is a permutation u with base^u = x, the level's one
    table: the sifts strip u from the left, so no inverse is stored.
    """

    __slots__ = ("base", "added", "transversal")

    def __init__(self, base: int):
        self.base = base
        self.added: list[Permutation] = []
        self.transversal: dict[int, Permutation] = {}


def orbit_transversal(x: int, gens, degree: int) -> dict[int, Permutation]:
    """The orbit of x under gens, breadth first: point y -> u with x^u = y.

    Keys come in discovery order, the generators tried in their given order.
    """
    transversal = {x: Permutation.identity(degree)}
    frontier = [x]
    while frontier:
        new_frontier = []
        for a in frontier:
            ua = transversal[a]
            for g in gens:
                b = g.images[a]
                if b not in transversal:
                    transversal[b] = compose(ua, g)
                    new_frontier.append(b)
        frontier = new_frontier
    return transversal


def _orbit_walk(x: int, gens: list[tuple[int, ...]], limit: int) -> list[int] | None:
    """x's orbit under the image tuples gens, breadth first; None once it passes limit points."""
    orbit = [x]
    seen = {x}
    for y in orbit:
        for g in gens:
            z = g[y]
            if z not in seen:
                seen.add(z)
                orbit.append(z)
        if len(orbit) > limit:
            return None
    return orbit


def _times_each(walk, transversal: list[tuple[int, ...]]):
    """Each element of ``walk`` followed by each transversal element, in turn."""
    return chain.from_iterable(map(times_p, transversal) for times_p in map(times, walk))


class PermGroup:
    """A finite permutation group given by generators on {0, ..., n-1}."""

    def __init__(self, generators, degree: int | None = None, name: str = ""):
        gens = [g if isinstance(g, Permutation) else Permutation(g) for g in generators]
        if not gens:
            if degree is None:
                raise PermError("empty generator list needs an explicit degree")
            gens = [Permutation.identity(degree)]
        if degree is None:
            degree = gens[0].degree
        for g in gens:
            if g.degree != degree:
                raise PermError(f"generator degree {g.degree} != group degree {degree}")
        self.degree = degree
        self.generators = tuple(gens)
        self.name = name
        self._chain: list[_ChainLevel] | None = None
        self._order: int | None = None

    def __repr__(self) -> str:
        label = self.name or "PermGroup"
        return f"<{label} degree={self.degree} order={self.order()}>"

    # -- stabilizer chain ---------------------------------------------------

    def _strong_gens_at(self, i: int) -> list[Permutation]:
        return [g for level in self._chain[i:] for g in level.added]

    def _file_gen(self, g: Permutation) -> int:
        """File a strong generator at the first level whose base it moves."""
        for m, level in enumerate(self._chain):
            if g.images[level.base] != level.base:
                level.added.append(g)
                return m
        base = min(i for i, j in enumerate(g.images) if i != j)
        level = _ChainLevel(base)
        level.added.append(g)
        self._chain.append(level)
        return len(self._chain) - 1

    def _sift_residue(self, p: tuple[int, ...], start: int = 0) -> tuple[int, ...]:
        """Strip transversal factors from the image tuple p; identity iff p is in the span."""
        for level in self._chain[start:]:
            y = p.index(level.base)  # p sends y to the base, so u_y·p (u_y first) fixes it
            if y == level.base:
                continue
            u = level.transversal.get(y)
            if u is None:
                return p
            p = times(u.images)(p)
        return p

    def _verify_level(self, i: int) -> int | None:
        """Sift all Schreier generators of level i.

        The Schreier generators u_x·g·u_{x^g}^-1, x in the level's orbit,
        generate its point stabilizer whenever the g generate the level's
        group (Schreier's lemma; Seress, *Permutation Group Algorithms*,
        2003, §4.1). Level 0's group is G, so there g runs over G's own
        generators; deeper levels use their strong generators. A tree edge,
        u_x·g == u_{x^g}, gives the identity and is skipped; at any other the
        inverse of u_{x^g} is built and dropped, as kept ones could reach n².
        Returns the level at which a missing strong generator was filed, or None.
        """
        transversal = self._chain[i].transversal
        gens = [g.images for g in (self.generators if i == 0 else self._strong_gens_at(i))]
        identity = tuple(range(self.degree))
        for x in sorted(transversal):
            times_ux = times(transversal[x].images)
            for g in gens:
                ux_g, y = times_ux(g), g[x]
                if ux_g == transversal[y].images:
                    continue
                residue = self._sift_residue(times(ux_g)(inverse(transversal[y]).images), i + 1)
                if residue != identity:
                    return self._file_gen(Permutation._trusted(residue))
        return None

    def _build_chain(self) -> None:
        if self._chain is not None:
            return
        base = min((i for g in self.generators for i, j in enumerate(g.images) if i != j),
                   default=None)
        self._chain = [] if base is None else [_ChainLevel(base)]
        for g in self.generators:
            if not g.is_identity():
                self._file_gen(g)
        i = len(self._chain) - 1
        while i >= 0:
            level = self._chain[i]
            level.transversal = orbit_transversal(level.base, self._strong_gens_at(i), self.degree)
            filed_at = self._verify_level(i)
            if filed_at is None:
                i -= 1
            else:
                i = filed_at
        order = 1
        for level in self._chain:
            order *= len(level.transversal)
        self._order = order

    def order(self) -> int:
        if self._order is None:
            self._build_chain()
        return self._order

    def membership(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            raise PermError("degree mismatch in membership test")
        self._build_chain()
        return self._sift_residue(p.images) == tuple(range(self.degree))

    def __contains__(self, p: Permutation) -> bool:
        return self.membership(p)

    def level_transversals(self, depth: int, budget: int = DEFAULT_ELEMENT_BUDGET):
        """(the first ``depth`` chain levels' transversals, a walk of the stabilizer below).

        Each transversal lists its level's image tuples u sorted by the point
        u sends the level's base point to; a level past the chain's end is the
        identity alone. The walk streams each element p of the pointwise
        stabilizer of the first ``depth`` base points once, off the deeper
        levels. Every element of G is u_0∘...∘u_{depth-1}∘p, the image tuple
        with i -> u_0[...u_{depth-1}[p[i]]], for exactly one choice of one u
        per transversal and one p. A caller can test such a product for fixed
        points before building it: u_0∘q fixes i exactly when q[i] ==
        u_0^-1[i]. Raises BudgetError at once when |G| exceeds the budget.
        """
        if self.order() > budget:
            raise BudgetError(
                f"order {self.order()} exceeds enumeration budget {budget}"
            )
        identity = tuple(range(self.degree))
        transversals = [[level.transversal[x].images for x in sorted(level.transversal)]
                        for level in self._chain]
        transversals += [[identity]] * (depth - len(transversals))
        walk = [identity]
        for transversal in reversed(transversals[depth:]):
            walk = _times_each(walk, transversal)
        return transversals[:depth], walk

    def base_stabilizer(self) -> tuple[int, list[Permutation], dict[int, Permutation]]:
        """(b0, generators of its stabilizer G_{b0}, the level-0 transversal by point).

        b0 is the first base point, the least point that G moves. The
        generators are the strong generators filed below level 0. The
        transversal maps each x in b0's orbit to the u with u[b0] == x; the
        dict is the chain's own, to be read and not changed. G must move some point.
        """
        self._build_chain()
        level = self._chain[0]
        return level.base, self._strong_gens_at(1), level.transversal

    def iter_images(self, budget: int = DEFAULT_ELEMENT_BUDGET):
        """Yield each element's image tuple exactly once, streamed off the chain.

        An element factors as (deeper levels) then u_i, so the walk runs from
        the deepest level and varies the base level fastest: each product u∘p
        of ``level_transversals(1)`` in turn. The budget check, like the walk,
        runs on the first request for an element.
        """
        (transversal,), walk = self.level_transversals(1, budget)
        yield from _times_each(walk, transversal)

    def elements(self, budget: int = DEFAULT_ELEMENT_BUDGET):
        """Each group element exactly once, lazily, as a Permutation.

        The walk's tuples are products of transversal elements, so they are
        wrapped unchecked.
        """
        return map(Permutation._trusted, self.iter_images(budget))

    def element_images(self, budget: int = DEFAULT_ELEMENT_BUDGET,
                       derangements: bool = False) -> list[tuple[int, ...]]:
        """All elements as image tuples, sorted lexicographically.

        With ``derangements`` only the fixed-point-free elements, read off
        ``coset_derangements`` for every point r != a of the first base
        point a's orbit, so no element with a fixed point is built. Raises
        BudgetError at once when |G| exceeds the budget, in either form.
        """
        if not derangements:
            return sorted(self.iter_images(budget))
        points, deranged = coset_derangements(self, budget)
        return sorted(x for r in points for x in deranged(r))

    # -- orbits and transitivity --------------------------------------------

    def orbit(self, x: int) -> set[int]:
        if not 0 <= x < self.degree:
            raise PermError(f"point {x} out of range for degree {self.degree}")
        return set(_orbit_walk(x, [g.images for g in self.generators], self.degree))

    def orbits(self) -> list[list[int]]:
        """The orbits, each sorted, in the order of their least points."""
        gens = [g.images for g in self.generators]
        placed = [False] * self.degree
        out = []
        for x in range(self.degree):
            if not placed[x]:
                orb = sorted(_orbit_walk(x, gens, self.degree))
                for y in orb:
                    placed[y] = True
                out.append(orb)
        return out

    def is_transitive(self) -> bool:
        return len(self.orbit(0)) == self.degree

    def stabilizer_order(self) -> int:
        """|G_x| for transitive G (all point stabilizers are conjugate)."""
        if not self.is_transitive():
            raise PermError("stabilizer_order requires a transitive group")
        order = self.order()
        assert order % self.degree == 0
        return order // self.degree

    def random_element(self, rng) -> Permutation:
        """Uniform element via the chain (deterministic given the rng)."""
        self._build_chain()
        p = Permutation.identity(self.degree)
        for level in self._chain:
            x = rng.choice(sorted(level.transversal))
            p = compose(level.transversal[x], p)
        return p

    def point_stabilizer_gens(self, x: int) -> list[Permutation]:
        """Generators of the stabilizer of x, via Schreier's lemma."""
        if not 0 <= x < self.degree:
            raise PermError(f"point {x} out of range")
        transversal = orbit_transversal(x, self.generators, self.degree)
        target = self.order() // len(transversal)
        schreier = []
        seen = set()
        for a in sorted(transversal):
            ua = transversal[a]
            for g in self.generators:
                s = compose(compose(ua, g), inverse(transversal[g.images[a]]))
                if not s.is_identity() and s.images not in seen:
                    seen.add(s.images)
                    schreier.append(s)
        return reduce_generators(schreier, self.degree, target)


# -- derangements, a coset at a time -------------------------------------------

# G_{a,b}'s walk is listed, |G_{a,b}|·n image entries, up to this size
_LISTED_WALK_ENTRIES = 1 << 16


def coset_derangements(G: PermGroup, budget: int = DEFAULT_ELEMENT_BUDGET):
    """(the points r != a of a's orbit, increasing; r -> the derangements in D_r).

    a is the chain's first base point, the least point G moves, and D_r =
    {x in G : x[a] = r}; every derangement lies in one D_r with r != a.
    With b the second base point, ``level_transversals(2)`` gives D_r as
    {u_r∘t∘s}: u_r the level-0 transversal element with u_r[a] == r, t in
    the level-1 transversal T of G_a and s in the walk of G_{a,b}. u_r∘t∘s
    fixes i exactly when t[s[i]] == u_r^-1[i]. So for each point c a dict
    maps each value v to the bitmask of the t in T with t[c] == v: n·|T|
    entries, built once per call. The t that give u_r∘t∘s a fixed point are
    then the OR over i of the masks at (s[i], u_r^-1[i]). Only the others
    are built, as (u_r∘t)∘s: no element of G_a and no element with a fixed
    point is built, and a coset's heads u_r∘t are dropped when it ends. A
    coset's derangements come for each s of the walk, then each t by
    increasing point.

    G_{a,b}'s walk is read once per coset. It is listed, |G_{a,b}|·n
    entries, only while that is at most ``_LISTED_WALK_ENTRIES`` (every
    catalog group), and otherwise walked again off the chain for each
    coset, so a wide G_{a,b} on many points costs time, not memory. When
    G_a is trivial, D_r is {u_r}, tested as it is and yielded as the
    chain's own tuple; otherwise u_r^-1 is built once per coset.

    Raises BudgetError at once when |G| exceeds the budget. The trivial
    group has no such point.
    """
    (_, level1), walk = G.level_transversals(2, budget)
    if G.order() == 1:
        return [], None
    a, _, at = G.base_stabilizer()
    points = sorted(r for r in at if r != a)

    if len(level1) == 1:  # G_a is trivial
        def regular(r: int):
            if not has_fixed_point(at[r].images):
                yield at[r].images
        return points, regular

    small = G.order() // (len(at) * len(level1)) * G.degree <= _LISTED_WALK_ENTRIES
    listed = list(walk) if small else None
    # masks[c][v]: bit k set when level1[k][c] == v
    masks: list[dict[int, int]] = [{} for _ in range(G.degree)]
    for k, t in enumerate(level1):
        for c, v in enumerate(t):
            masks[c][v] = masks[c].get(v, 0) | 1 << k
    every_t = (1 << len(level1)) - 1
    times_level1 = list(map(times, level1))

    def deranged(r: int):
        heads = [times_t(at[r].images) for times_t in times_level1]
        u_inv = inverse(at[r]).images
        for s in listed if listed is not None else G.level_transversals(2, budget)[1]:
            free = every_t ^ reduce(or_, map(dict.get, map(masks.__getitem__, s),
                                             u_inv, repeat(0)))
            if free:
                times_s = times(s)
                while free:
                    bit = free & -free
                    free ^= bit
                    yield times_s(heads[bit.bit_length() - 1])
    return points, deranged


def group_from_generators(gens, degree: int | None = None, name: str = "") -> PermGroup:
    if not gens:
        raise PermError("need at least one generator (use the identity for the trivial group)")
    return PermGroup(gens, degree, name)


def trivial_group(degree: int) -> PermGroup:
    return PermGroup([Permutation.identity(degree)], degree)


# -- subgroup closure ---------------------------------------------------------


def close_subgroup(gens, degree: int, cap: int) -> list[Permutation] | None:
    """Breadth-first closure of ``gens``; None if the size would exceed cap.

    The elements come sorted by image tuple. Independent of the stabilizer
    chain, so the certificate checkers and the oracles use it, never the
    searches. A generator of another degree raises PermError.
    """
    gen_images = [g.images for g in gens]
    for g in gen_images:
        if len(g) != degree:
            raise PermError(f"generator degree {len(g)} != subgroup degree {degree}")
    identity = tuple(range(degree))
    elems = {identity}
    frontier = [identity]
    while frontier:
        new_frontier = []
        for t in frontier:
            for prod in map(times(t), gen_images):
                if prod not in elems:
                    if len(elems) >= cap:
                        return None
                    elems.add(prod)
                    new_frontier.append(prod)
        frontier = new_frontier
    return [Permutation._trusted(t) for t in sorted(elems)]


def reduce_generators(gens: list[Permutation], degree: int, target_order: int) -> list[Permutation]:
    """Greedy small generating set for the group the gens generate.

    Adds generators in order until the stabilizer-chain order reaches
    ``target_order``; raises if it cannot.
    """
    chosen: list[Permutation] = []
    spanned = None  # the group of ``chosen``, one chain build per kept generator
    for g in gens:
        if g.is_identity():
            continue
        if spanned is not None and spanned.membership(g):
            continue
        chosen.append(g)
        spanned = PermGroup(chosen, degree)
        if spanned.order() == target_order:
            return chosen
    if target_order == 1:
        return [Permutation.identity(degree)]
    raise PermError(f"generators span order {spanned.order() if spanned else 1},"
                    f" expected {target_order}")


# -- block systems and primitivity --------------------------------------------


class BlockSystem:
    """A G-invariant partition of {0, ..., n-1} into equal-size blocks."""

    def __init__(self, block_of: list[int]):
        self.degree = len(block_of)
        relabel: dict[int, int] = {}
        canon = []
        for b in block_of:
            if b not in relabel:
                relabel[b] = len(relabel)
            canon.append(relabel[b])
        self.block_of = tuple(canon)
        self.num_blocks = len(relabel)

    def blocks(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.num_blocks)]
        for x, b in enumerate(self.block_of):
            out[b].append(x)
        return out

    def is_invariant_under(self, g: Permutation) -> bool:
        """g maps blocks to blocks: block_of(x^g) depends only on block_of(x)."""
        image_of_block: dict[int, int] = {}
        for x in range(self.degree):
            b = self.block_of[x]
            ib = self.block_of[g.images[x]]
            if image_of_block.setdefault(b, ib) != ib:
                return False
        return True

    def __eq__(self, other) -> bool:
        return isinstance(other, BlockSystem) and self.block_of == other.block_of

    def __hash__(self) -> int:
        return hash(self.block_of)


def blocks_and_primitivity(G: PermGroup) -> tuple[list[BlockSystem], bool]:
    """All minimal nontrivial block systems from seeds {0, a}, deduplicated.

    The blocks of the transitive G that hold 0 are the orbits 0^H of the
    subgroups H with G_0 <= H <= G (Dixon-Mortimer, *Permutation Groups*,
    1996, §1.5). So the finest block holding 0 and a is 0's orbit under
    G_0's strong generators and u_a, the level-0 transversal element with
    u_a[0] == a. A block's size divides n, so a walk past n/2 points is the
    whole set, the trivial system, and is dropped. Otherwise the block
    holding x is the block's image under u_x.

    Only the least point a of each G_0-orbit is seeded: any h in G_0 maps
    the finest block holding 0 and a onto the one holding 0 and h(a), and,
    fixing 0, onto itself. So the systems come out as from all n - 1 seeds,
    in the same order.
    """
    if not G.is_transitive():
        raise PermError("blocks_and_primitivity requires a transitive group")
    n = G.degree
    systems = []
    if n < 2:
        return systems, True
    # G moves every point, so its chain opens at 0; orbits() lists each orbit
    # sorted, and the first is {0}
    _, stabilizer, transversal = G.base_stabilizer()
    gens = [g.images for g in stabilizer]
    seen = set()
    for a in (orbit[0] for orbit in PermGroup(stabilizer, n).orbits()[1:]):
        block = _orbit_walk(0, gens + [transversal[a].images], n // 2)
        if block is None or frozenset(block) in seen:
            continue
        seen.add(frozenset(block))
        block_of = [None] * n
        for x in range(n):
            if block_of[x] is None:
                u = transversal[x].images
                for y in block:
                    block_of[u[y]] = x
        systems.append(BlockSystem(block_of))
    return systems, not systems


# -- coset actions -------------------------------------------------------------


def _coset_trie(images: list[tuple[int, ...]], depth: int = 0):
    """A compressed trie of sorted image tuples that agree before ``depth``.

    A leaf is the one tuple left; an internal node is a dict from the value
    at the first position where its tuples differ to the subtrie of the
    tuples holding that value there. Every internal node branches, so there
    are at most len(images) - 1 of them. For the elements of a group H, the
    tuples under a node form a coset of a pointwise stabilizer, which at least
    halves at each branching, so a path meets at most log2 |H| of them.
    """
    if len(images) == 1:
        return images[0]
    # sorted: the first and last tuple agree exactly where all of them do
    while images[0][depth] == images[-1][depth]:
        depth += 1
    return {y: _coset_trie(list(run), depth + 1)
            for y, run in groupby(images, key=itemgetter(depth))}


class CosetAction:
    """The action of G on the right cosets of H = <H_gens>.

    ``group`` is the permutation group that G's generators induce on the
    cosets; ``act(p)`` maps any element of G (given in the original degree)
    to its permutation of the cosets. Coset 0 is H itself. H's elements are
    walked off its own stabilizer chain, within ``element_budget``.

    A coset H r is keyed by its lexicographically least image tuple. Its
    elements are the tuples (r[h[0]], ..., r[h[n-1]]) for h in H, so the key
    is read off a compressed trie of H's sorted image tuples: where the
    remaining h first differ, at some position p, every candidate agrees
    with the others before p and has r[h[p]] at p, so the least one takes
    the child y = h[p] with the least r[y], which is unique because r is a
    bijection. A key costs about the sum of H's basic orbit lengths, not
    |H| * n.
    """

    def __init__(self, G: PermGroup, H_gens, degree_budget: int = DEFAULT_DEGREE_BUDGET,
                 element_budget: int = DEFAULT_ELEMENT_BUDGET, name: str = ""):
        for h in H_gens:
            if not G.membership(h):
                raise PermError("coset action requires H to be a subgroup of G")
        H = PermGroup(H_gens, G.degree)
        self.group_order = G.order()
        self.subgroup_order = H.order()  # divides |G| by Lagrange, H being in G
        index = self.group_order // self.subgroup_order
        if index > degree_budget:
            raise BudgetError(f"coset index {index} exceeds degree budget {degree_budget}")

        self._trie = _coset_trie(H.element_images(element_budget))
        identity = tuple(range(G.degree))
        gen_images = [g.images for g in G.generators]
        self._key_to_index = {self._coset_key(identity): 0}
        self._reps = [identity]
        frontier = [identity]
        while frontier:
            new_frontier = []
            for rep in frontier:
                for moved in map(times(rep), gen_images):
                    key = self._coset_key(moved)
                    if key not in self._key_to_index:
                        self._key_to_index[key] = len(self._reps)
                        self._reps.append(moved)
                        new_frontier.append(moved)
            frontier = new_frontier
        if len(self._reps) != index:
            raise PermError("coset enumeration did not reach the full index")

        self.degree = index
        self.group = PermGroup([self.act(g) for g in G.generators], index, name=name)

    def _coset_key(self, rep: tuple[int, ...]) -> tuple[int, ...]:
        """The least image tuple of the coset H rep, by a walk down the trie."""
        node = self._trie
        while type(node) is dict:
            node = node[min(node, key=rep.__getitem__)]
        return times(node)(rep)

    def act(self, p: Permutation) -> Permutation:
        """Permutation induced by p on the cosets."""
        return Permutation(self._key_to_index[self._coset_key(times(rep)(p.images))]
                           for rep in self._reps)


def coset_action(G: PermGroup, H_gens, degree_budget: int = DEFAULT_DEGREE_BUDGET,
                 element_budget: int = DEFAULT_ELEMENT_BUDGET, name: str = "") -> CosetAction:
    return CosetAction(G, H_gens, degree_budget, element_budget, name)


# -- block action (for lifting) ------------------------------------------------


def block_image(g: Permutation, system: BlockSystem) -> Permutation:
    """Permutation induced by g on the blocks (g must preserve the system)."""
    if not system.is_invariant_under(g):
        raise PermError("permutation does not preserve the block system")
    reps = [blk[0] for blk in system.blocks()]
    return Permutation(system.block_of[g.images[r]] for r in reps)
