"""Fixed-point-free structure: semiregular elements and subgroups, elusiveness.

A subgroup is semiregular when its only element with a fixed point is the
identity; its order then divides the degree, which is what keeps the
subgroup searches here small. Elusiveness and the subgroup search read one
element census of the group: its derangement count and its semiregular
elements. The subgroup search is a closure BFS that extends a semiregular
subgroup by one cyclic semiregular subgroup at a time; since every subgroup
of a semiregular group is semiregular, every semiregular subgroup is
reachable this way and a closed search is exhaustive.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from .group import (
    DEFAULT_ELEMENT_BUDGET,
    DEFAULT_SUBGROUP_BUDGET,
    BlockSystem,
    BudgetError,
    PermGroup,
    block_image,
    close_subgroup,
)
from .numth import factorize, is_prime
from .perm import Permutation, PermError, compose, cycle_type, is_derangement

DEFAULT_EXTENSION_BUDGET = 400_000


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


def is_semiregular_element(p: Permutation) -> bool:
    """True iff all cycles of p share one length, i.e. <p> is semiregular."""
    lengths = cycle_type(p)
    return lengths[0] == lengths[-1]


def is_semiregular_subgroup(H_gens, degree: int,
                            subgroup_budget: int = DEFAULT_SUBGROUP_BUDGET) -> bool:
    """Enumerate <H_gens> and check every non-identity element is a derangement."""
    elems = close_subgroup(list(H_gens), degree, subgroup_budget)
    if elems is None:
        raise BudgetError(f"subgroup exceeds budget {subgroup_budget}")
    identity = tuple(range(degree))
    return all(p.images == identity or is_derangement(p) for p in elems)


def validate_semiregular(witness: SemiregularWitness, degree: int,
                         subgroup_budget: int = DEFAULT_SUBGROUP_BUDGET) -> None:
    """Independent re-verification of a witness, from the definition."""
    elems = close_subgroup(witness.generators, degree, subgroup_budget)
    if elems is None:
        raise WitnessError("witness subgroup exceeds the verification budget")
    if len(elems) != witness.order:
        raise WitnessError(f"witness order {witness.order} != enumerated {len(elems)}")
    for p in elems:
        if not p.is_identity() and any(i == j for i, j in enumerate(p.images)):
            raise WitnessError(f"non-identity member {p!r} fixes a point")


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


@lru_cache(maxsize=1)
def element_census(G: PermGroup, element_budget: int) -> tuple[int, tuple[Permutation, ...]]:
    """(derangement count, sorted non-identity semiregular elements) of G.

    One pass; raises BudgetError when |G| exceeds the budget. Only derangements
    get the cycle-type test, since every non-identity semiregular element is
    one. Only the latest group's census is kept: a larger cache would hold the
    semiregular elements of every group its callers keep alive.
    """
    count = 0
    semiregular = []
    for p in G.elements(element_budget):
        if is_derangement(p):
            count += 1
            if is_semiregular_element(p):
                semiregular.append(p)
    return count, tuple(sorted(semiregular))


def is_elusive(G: PermGroup,
               element_budget: int = DEFAULT_ELEMENT_BUDGET) -> ElusivenessReport:
    """Search the elements of prime order for a derangement.

    Elusive means no fixed-point-free element of prime order exists. Such an
    element is a derangement exactly when it is semiregular, so the witness,
    the first one in the sorted census, is the lexicographically least one.
    """
    primes = sorted(factorize(G.order()))
    try:
        _, semi_elems = element_census(G, element_budget)
    except BudgetError:
        return ElusivenessReport(G.name, None, None, None, primes,
                                 "order exceeds enumeration budget")
    witness = next((p for p in semi_elems if is_prime(p.order())), None)
    if witness is None:
        return ElusivenessReport(G.name, True, None, None, primes)
    return ElusivenessReport(G.name, False, witness, witness.order(), primes)


# -- maximum semiregular order --------------------------------------------------


def _close_semiregular(gen_images: list[tuple[int, ...]], degree: int,
                       cap: int) -> list[tuple[int, ...]] | None:
    """Closure of the generators, aborting unless it stays a semiregular set.

    Returns None as soon as the closure exceeds ``cap`` elements or contains
    a non-identity element with a fixed point.
    """
    identity = tuple(range(degree))
    elems = {identity}
    frontier = [identity]
    while frontier:
        new_frontier = []
        for t in frontier:
            for g in gen_images:
                prod = tuple(g[i] for i in t)
                if prod in elems:
                    continue
                if len(elems) >= cap:
                    return None
                if any(i == j for i, j in enumerate(prod)):
                    return None
                elems.add(prod)
                new_frontier.append(prod)
        frontier = new_frontier
    return sorted(elems)


@dataclass
class MaxSemiregularResult:
    witness: SemiregularWitness
    optimal: bool
    nodes: int
    semiregular_element_count: int = 0


def max_semiregular_order(G: PermGroup,
                          element_budget: int = DEFAULT_ELEMENT_BUDGET,
                          extension_budget: int = DEFAULT_EXTENSION_BUDGET,
                          subgroup_budget: int = DEFAULT_SUBGROUP_BUDGET,
                          seeds: tuple = ()) -> MaxSemiregularResult:
    """Largest semiregular subgroup found, with provenance.

    Search order: caller-provided seed subgroups (checked, never trusted),
    then every cyclic subgroup generated by a semiregular element of the
    element census, then a breadth-first closure over semiregular subgroups
    extended one cyclic subgroup at a time. An extension joins the least
    generator of a cyclic subgroup: <K, p> = <K, q> whenever <p> = <q>. The
    optimality flag is set only when the census was complete, the closure
    search exhausted its frontier within budget, and the subgroup budget
    reached the degree (below it, a closure cut off by the budget cannot be
    told from one that is not semiregular); a capped run reports the best
    witness found, never a negative claim.
    """
    n = G.degree
    best = SemiregularWitness(G.name, [Permutation.identity(n)], 1, "cyclic-scan")
    nodes = 0

    for seed_gens, label in seeds:
        elems = close_subgroup(list(seed_gens), n, subgroup_budget)
        if elems is None:
            continue
        witness = SemiregularWitness(G.name, list(seed_gens), len(elems), label)
        try:
            validate_semiregular(witness, n, subgroup_budget)
        except WitnessError:
            continue
        if len(elems) > best.order:
            best = witness

    try:
        _, semi_elems = element_census(G, element_budget)
    except BudgetError:
        return MaxSemiregularResult(best, False, nodes)

    # closure BFS over semiregular subgroups
    cap = min(n, subgroup_budget) + 1
    visited: set[frozenset] = set()
    queue: deque[tuple[list[Permutation], frozenset]] = deque()

    def push(gens: list[Permutation], elems: list[tuple[int, ...]], method: str) -> None:
        nonlocal best
        key = frozenset(elems)
        if key in visited:
            return
        visited.add(key)
        if len(elems) > best.order:
            best = SemiregularWitness(G.name, list(gens), len(elems), method)
        queue.append((gens, key))

    coprime = semiregular_primes(G) if G.is_transitive() else set()
    for p in semi_elems:
        method = "order-coprime" if p.order() in coprime else "cyclic-scan"
        # <p> is semiregular of order at most n, so this closure always succeeds
        push([p], _close_semiregular([p.images], n, n + 1), method)
    # only the least generator of each cyclic subgroup was queued
    cyclic_gens = [gens[0] for gens, _ in queue]
    for seed_gens, label in seeds:
        elems = _close_semiregular([g.images for g in seed_gens], n, cap)
        if elems is not None:
            push(list(seed_gens), elems, label)

    while queue:
        gens, key = queue.popleft()
        gen_images = [g.images for g in gens]
        for q in cyclic_gens:
            if q.images in key:
                continue
            nodes += 1
            if nodes > extension_budget:
                return MaxSemiregularResult(best, False, nodes, len(semi_elems))
            elems = _close_semiregular(gen_images + [q.images], n, cap)
            if elems is not None and len(elems) <= n:
                push(gens + [q], elems, "backtrack")

    return MaxSemiregularResult(best, subgroup_budget >= n, nodes, len(semi_elems))


# -- block lifting ---------------------------------------------------------------


def lift_semiregular(G: PermGroup, system: BlockSystem, Xbar_gens: list[Permutation],
                     element_budget: int = DEFAULT_ELEMENT_BUDGET,
                     subgroup_budget: int = DEFAULT_SUBGROUP_BUDGET) -> SemiregularWitness:
    """Pull a semiregular group of block permutations back through the block map.

    The preimage contains the kernel of the block action; when the ambient
    group has a transitive minimal normal subgroup the preimage is again
    semiregular on points. That hypothesis is not checkable here, so the
    output is re-verified and a failure is reported as such.
    """
    if system.degree != G.degree:
        raise PermError("block system degree mismatch")
    if Xbar_gens and Xbar_gens[0].degree != system.num_blocks:
        raise PermError("block generators must act on the blocks")
    if not is_semiregular_subgroup(Xbar_gens or [Permutation.identity(system.num_blocks)],
                                   system.num_blocks, subgroup_budget):
        raise PermError("the block subgroup is not semiregular on the blocks")

    xbar_elems = close_subgroup(
        Xbar_gens or [Permutation.identity(system.num_blocks)],
        system.num_blocks, subgroup_budget)
    xbar_set = {p.images for p in xbar_elems}

    preimage: list[Permutation] = []
    for g in G.elements(element_budget):
        if block_image(g, system).images in xbar_set:
            preimage.append(g)
            if len(preimage) > subgroup_budget:
                raise BudgetError("preimage exceeds the subgroup budget")

    gens: list[Permutation] = []
    span = {tuple(range(G.degree))}
    for g in sorted(preimage):
        if g.images in span:
            continue
        gens.append(g)
        span = {p.images for p in close_subgroup(gens, G.degree, subgroup_budget)}
        if len(span) == len(preimage):
            break

    witness = SemiregularWitness(G.name, gens or [Permutation.identity(G.degree)],
                                 len(preimage), "lifted")
    validate_semiregular(witness, G.degree, subgroup_budget)
    return witness


# -- product actions --------------------------------------------------------------


def product_action_fpf(h_list: list[Permutation], a: Permutation) -> bool:
    """Fixed-point-freeness of (h_1, ..., h_k)a on Delta^k, without expanding it.

    A point is fixed iff around every cycle of a the ordered product of the
    h's admits a fixed point on Delta, so the element is fixed-point-free
    iff some cycle product is a derangement.
    """
    if a.degree != len(h_list):
        raise PermError("coordinate permutation degree must match the h list")
    for cyc in a.cycles():
        prod = h_list[cyc[0]]
        for j in cyc[1:]:
            prod = compose(prod, h_list[j])
        if is_derangement(prod):
            return True
    return False


def product_action_order(h_list: list[Permutation], a: Permutation) -> int:
    """Order of (h_1, ..., h_k)a in the product action."""
    from math import lcm

    total = 1
    for cyc in a.cycles():
        prod = h_list[cyc[0]]
        for j in cyc[1:]:
            prod = compose(prod, h_list[j])
        total = lcm(total, len(cyc) * prod.order())
    return total


def product_action_perm(h_list: list[Permutation], a: Permutation) -> Permutation:
    """Materialize (h_1, ..., h_k)a as a permutation of Delta^k (small k only)."""
    delta = h_list[0].degree
    k = a.degree
    a_inv = [0] * k
    for i, j in enumerate(a.images):
        a_inv[j] = i
    points = [()]
    for _ in range(k):
        points = [t + (d,) for t in points for d in range(delta)]
    index = {t: i for i, t in enumerate(points)}
    images = []
    for t in points:
        image = tuple(h_list[a_inv[i]].images[t[a_inv[i]]] for i in range(k))
        images.append(index[image])
    return Permutation(images)


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
    assert product_action_fpf(h_list, a)
    witness = None
    if base.degree ** kappa <= 1_000_000:
        witness = product_action_perm(h_list, a)
        assert is_derangement(witness)
    return ElusivenessReport(name, False, witness, base_report.witness_order, primes,
                             "base witness placed in the first coordinate")
