#!/usr/bin/env python3
"""Seeded differential corpus for the semiregular subgroup search.

Draws random transitive groups of degree 4 to 10 and order at most 1,500,
and compares ``semireg.max_semiregular_order`` with the subgroup-lattice
oracle ``oracles.exhaustive_max_semiregular``: the orders must agree, the
search must report itself closed, and its witness must re-validate. The
oracle prunes its walk by orders, so it is compared in turn with
``reference_max_semiregular``, the same walk without that pruning.

    python tools/semireg_corpus.py 1 2 3   # three seeds, 150 groups each

Each group is generated by one to three uniform random elements of an
ambient group: S_n, or the imprimitive wreath product S_k wr S_m with
k * m = n, so that small groups with block systems, where the search
reaches its breadth-first stage, are drawn often. The same seed draws the
same groups. On a mismatch the generators that reproduce it are printed and
the exit status is 1.
"""

from __future__ import annotations

import argparse
import random
import sys
from math import gcd, lcm
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from drg.constructions import natural_sym
from drg.group import PermGroup, close_subgroup
from drg.oracles import exhaustive_max_semiregular
from drg.perm import Permutation
from drg.semireg import WitnessError, max_semiregular_order, validate_semiregular

MAX_ORDER = 1_500
GROUPS = 150  # per seed


def reference_max_semiregular(G: PermGroup) -> int:
    """Largest semiregular subgroup by a walk of every subgroup of order at most n.

    The oracle's walk before its pruning by orders: each subgroup is joined
    with every cyclic subgroup, through its least generator, and a join is
    skipped only when max(lcm(|H|, ord g), 2|H|) exceeds n, the degree; each
    newly closed subgroup is tested for semiregularity from the definition,
    and the walk stops at one of order n.
    """
    n = G.degree
    images = G.element_images()
    identity = images[0]
    covered = set()
    cyclic_gens = []
    for g in images[1:]:
        if g in covered:
            continue
        powers = [g]
        while powers[-1] != identity:
            powers.append(tuple(g[i] for i in powers[-1]))
        order = len(powers)
        covered.update(powers[k - 1] for k in range(1, order) if gcd(k, order) == 1)
        cyclic_gens.append((Permutation(g), order))
    trivial = frozenset({identity})
    seen = {trivial}
    frontier = [(trivial, [])]
    best = 1
    while frontier:
        new = []
        for H, gens in frontier:
            for g, order in cyclic_gens:
                if g.images in H or max(lcm(len(H), order), 2 * len(H)) > n:
                    continue
                path = gens + [g]
                closed = close_subgroup(path, n, n)
                if closed is None:
                    continue
                key = frozenset(p.images for p in closed)
                if key in seen:
                    continue
                seen.add(key)
                new.append((key, path))
                if len(key) > best and all(
                        t == identity or all(i != j for i, j in enumerate(t)) for t in key):
                    best = len(key)
                    if best == n:
                        return n
        frontier = new
    return best


def imprimitive_wreath(k: int, m: int) -> PermGroup:
    """S_k wr S_m on k * m points, block i holding k*i .. k*i + k - 1."""
    n = k * m

    def within_first_block(tau: list[int]) -> tuple[int, ...]:
        return tuple(tau[i] if i < k else i for i in range(n))

    def of_blocks(sigma: list[int]) -> tuple[int, ...]:
        return tuple(sigma[i // k] * k + i % k for i in range(n))

    return PermGroup([within_first_block([1, 0, *range(2, k)]),
                      within_first_block([*range(1, k), 0]),
                      of_blocks([1, 0, *range(2, m)]),
                      of_blocks([*range(1, m), 0])], n, name=f"S{k} wr S{m}")


def ambient_groups(degree: int) -> list[PermGroup]:
    return [natural_sym(degree), *(imprimitive_wreath(k, degree // k)
                                   for k in range(2, degree // 2 + 1) if degree % k == 0)]


def draw(rng: random.Random, ambients: dict[int, list[PermGroup]]) -> PermGroup:
    """A transitive group of order <= MAX_ORDER, from random ambient elements."""
    while True:
        ambient = rng.choice(ambients[rng.randint(4, 10)])
        gens = [ambient.random_element(rng) for _ in range(rng.randint(1, 3))]
        G = PermGroup(gens, ambient.degree)
        if G.is_transitive() and G.order() <= MAX_ORDER:
            return G


def run_seed(seed: int, groups: int, ambients: dict[int, list[PermGroup]]) -> int:
    """Compare every group of one seed; print each mismatch. Returns their number."""
    rng = random.Random(seed)
    mismatches = searched = 0
    for _ in range(groups):
        G = draw(rng, ambients)
        result = max_semiregular_order(G)
        expected = exhaustive_max_semiregular(G)
        reference = reference_max_semiregular(G)
        searched += result.nodes > 0
        problem = None
        if expected != reference:
            problem = f"oracle {expected}, reference walk {reference}"
        elif result.witness.order != expected:
            problem = f"order {result.witness.order}, oracle {expected}"
        elif not result.optimal:
            problem = "search not closed"
        else:
            try:
                validate_semiregular(result.witness, G.degree)
            except WitnessError as exc:
                problem = f"witness rejected: {exc}"
        if problem:
            mismatches += 1
            print(f"MISMATCH seed {seed}: {problem}; degree {G.degree}, order {G.order()}, "
                  f"generators {[list(g.images) for g in G.generators]}")
    print(f"seed {seed}: {groups} groups, {searched} reached the search, "
          f"{mismatches} mismatches")
    return mismatches


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="+", type=int)
    args = parser.parse_args(argv)
    ambients = {n: ambient_groups(n) for n in range(4, 11)}
    mismatches = sum(run_seed(seed, GROUPS, ambients) for seed in args.seeds)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
