#!/usr/bin/env python3
"""Generate the shipped group catalog under src/drg/data/.

Every group is constructed from first principles (shuffle generators,
projective actions, matrix groups, coset actions) and verified against its
recorded metadata before anything is written. Running this script twice
produces byte-identical output.

    python tools/build_catalog.py          # rebuild src/drg/data
    python tools/build_catalog.py --check  # compare, write nothing

With ``--check`` every group is built in memory and compared byte for byte
with the files under src/drg/data; any changed, missing or extra file is
listed and the exit status is 1.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from drg.constructions import (
    cyclic_group,
    dihedral_group,
    natural_alt,
    natural_sym,
    projective_line_psl2,
    projective_perm,
    projective_points,
    subset_image,
    subsets_action,
    symplectic_unipotent_family,
)
from drg.fields import GF, Matrix
from drg.group import (
    PermGroup,
    blocks_and_primitivity,
    close_subgroup,
    coset_action,
    reduce_generators,
)
from drg.perm import Permutation, compose, inverse, parse_cycles
from drg.semireg import is_elusive, is_semiregular_element, is_semiregular_subgroup

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "drg" / "data"

t_start = time.time()


def log(msg: str) -> None:
    print(f"[{time.time() - t_start:7.1f}s] {msg}", flush=True)


def file_name(name: str) -> str:
    return name.replace(":", "_").replace(" ", "_").lower() + ".json"


INDEX: list[dict] = []
FILES: dict[str, str] = {}  # file name under DATA_DIR -> its text


def emit(G: PermGroup, name: str, notes: str, subgroups: list[tuple[str, list[Permutation]]] = (),
         expect_order: int | None = None, expect_primitive: bool | None = None) -> PermGroup:
    order = G.order()
    if expect_order is not None:
        assert order == expect_order, (name, order, expect_order)
    assert G.is_transitive(), name
    _, primitive = blocks_and_primitivity(G)
    if expect_primitive is not None:
        assert primitive == expect_primitive, (name, primitive)
    record = {
        "name": name,
        "degree": G.degree,
        "one_based": False,
        "generators": [list(g.images) for g in G.generators],
        "subgroups": [
            {"name": sub_name, "generators": [list(g.images) for g in gens]}
            for sub_name, gens in subgroups
        ],
        "notes": notes,
    }
    FILES[file_name(name)] = json.dumps(record, indent=1, sort_keys=True) + "\n"
    INDEX.append({
        "name": name,
        "file": file_name(name),
        "degree": G.degree,
        "order": order,
        "transitive": True,
        "primitive": primitive,
        "stabilizer_order": order // G.degree,
        "notes": notes,
    })
    log(f"built {name}: degree {G.degree}, order {order}, primitive={primitive}")
    return G


def elements_sorted(G: PermGroup) -> list[Permutation]:
    return [Permutation(t) for t in G.element_images()]


def find_subgroup(elements: list[Permutation], degree: int, first_order: int,
                  second_order: int, target: int) -> list[Permutation] | None:
    """First subgroup <a, b> of the target order, scanning sorted elements."""
    firsts = [p for p in elements if p.order() == first_order]
    seconds = [p for p in elements if p.order() == second_order]
    for a in firsts[:8]:
        for b in seconds:
            closed = close_subgroup([a, b], degree, target + 1)
            if closed is not None and len(closed) == target:
                return reduce_generators([a, b], degree, target)
    return None


def normalizer_gens(elements: list[Permutation], subgroup: list[Permutation],
                    degree: int, expect: int) -> list[Permutation]:
    sub_set = {p.images for p in subgroup}
    norm = []
    for g in elements:
        gi = inverse(g)
        if all(compose(compose(gi, Permutation(s)), g).images in sub_set for s in sub_set):
            norm.append(g)
    assert len(norm) == expect, (len(norm), expect)
    return reduce_generators(norm, degree, expect)


def build() -> None:
    # -- elementary corpus -------------------------------------------------
    for n in range(2, 8):
        emit(cyclic_group(n), f"C{n}:{n}", "cyclic regular action", expect_order=n)
    for n in (4, 5, 6):
        emit(dihedral_group(n), f"D{n}:{n}", "dihedral natural action", expect_order=2 * n)

    # quaternion group, regular action on its 8 elements 1,-1,i,-i,j,-j,k,-k
    q8_i = Permutation([2, 3, 1, 0, 6, 7, 5, 4])
    q8_j = Permutation([4, 5, 7, 6, 1, 0, 2, 3])
    emit(PermGroup([q8_i, q8_j], name="Q8:8"), "Q8:8",
         "quaternion group in its regular action", expect_order=8)

    emit(natural_sym(3), "S3:3", "symmetric group, natural action", expect_order=6)
    emit(natural_sym(4), "S4:4", "symmetric group, natural action", expect_order=24)
    emit(natural_sym(5), "S5:5", "symmetric group, natural action", expect_order=120)
    # natural alternating groups up to A9; A10 and beyond exceed the default
    # element-enumeration budget and would break corpus-wide scans
    emit(natural_alt(4), "A4:4", "alternating group, natural action", expect_order=12)
    for m in (5, 6, 7, 8, 9):
        emit(natural_alt(m), f"A{m}:{m}", "alternating group, natural action")

    # A4 on cosets of <(0,1)(2,3)> and S4 on cosets of <(0,1,2,3)>
    a4 = natural_alt(4)
    act = coset_action(a4, [parse_cycles("(0,1)(2,3)", 4)], name="A4:6")
    emit(act.group, "A4:6", "A4 on the cosets of a klein-four involution", expect_order=12)
    s4 = natural_sym(4)
    act = coset_action(s4, [parse_cycles("(0,1,2,3)", 4)], name="S4:6")
    emit(act.group, "S4:6", "S4 on the cosets of a cyclic four-subgroup", expect_order=24)

    # frobenius group of order 20: x -> x+1 and x -> 2x on GF(5)
    f20 = PermGroup([Permutation([(i + 1) % 5 for i in range(5)]),
                     Permutation([(2 * i) % 5 for i in range(5)])], name="F20:5")
    emit(f20, "F20:5", "frobenius group of order 20 (sharply 2-transitive)", expect_order=20)

    emit(projective_line_psl2(5), "A5:6", "PSL2(5) on the projective line",
         expect_order=60, expect_primitive=True)
    emit(projective_line_psl2(7), "PSL2(7):8", "PSL2(7) on the projective line",
         expect_order=168, expect_primitive=True)

    # PSL2(7) = PSL3(2) on the 7 points of the fano plane
    psl27_8 = projective_line_psl2(7)
    f2 = GF(2)
    fano_pts = projective_points(f2, 3)
    fano_gens = [
        Matrix.from_lists(f2, [[0, 1, 0], [0, 0, 1], [1, 0, 0]]),
        Matrix.from_lists(f2, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
    ]
    psl27_7 = PermGroup([projective_perm(M, fano_pts) for M in fano_gens], name="PSL2(7):7")
    emit(psl27_7, "PSL2(7):7", "PSL3(2) on the seven points of PG(2,2)",
         expect_order=168, expect_primitive=True)

    emit(subsets_action(5, 2), "A5:10", "A5 on the ten 2-subsets", expect_order=60)
    s5_gens = [subset_image(g, 5, 2) for g in natural_sym(5).generators]
    emit(PermGroup(s5_gens, name="S5:10"), "S5:10", "S5 on the ten 2-subsets",
         expect_order=120)
    emit(natural_sym(6), "S6:6", "symmetric group, natural action", expect_order=720)
    emit(subsets_action(9, 2), "A9:36", "A9 on the 36 2-subsets",
         expect_order=181440)

    # -- mathieu groups -----------------------------------------------------
    log("building M12 from the two mongean shuffles")
    reversal = Permutation([11 - i for i in range(12)])
    mongean = Permutation([2 * i if 2 * i < 12 else 23 - 2 * i for i in range(12)])
    m12 = PermGroup([reversal, mongean], name="M12:12")
    assert m12.order() == 95040
    emit(m12, "M12:12", "generated by the two mongean shuffles on 12 cards",
         expect_order=95040, expect_primitive=True)

    log("extracting M11 as a point stabilizer of M12")
    stab_gens_12 = m12.point_stabilizer_gens(0)
    m11_gens = [Permutation([g.images[i + 1] - 1 for i in range(11)]) for g in stab_gens_12]
    m11 = PermGroup(m11_gens, name="M11:11")
    assert m11.order() == 7920

    m11_elements = elements_sorted(m11)
    log("searching PSL2(11) inside M11")
    x11 = next(p for p in m11_elements if p.order() == 11)
    psl_gens = None
    for t in (p for p in m11_elements if p.order() == 2):
        closed = close_subgroup([x11, t], 11, 661)
        if closed is not None and len(closed) == 660:
            psl_gens = reduce_generators([x11, t], 11, 660)
            break
    assert psl_gens is not None
    psl_elements = close_subgroup(psl_gens, 11, 661)
    assert len(psl_elements) == 660

    log("maximal subgroups of the PSL2(11) copy")
    sub_11_5 = normalizer_gens(psl_elements, close_subgroup([x11], 11, 12), 11, 55)
    y6 = next(p for p in psl_elements if p.order() == 6)
    sub_6_2 = normalizer_gens(psl_elements, close_subgroup([y6], 11, 7), 11, 12)

    log("the two conjugacy classes of A5 in PSL2(11)")
    a5_subgroups = []
    seen_sets = set()
    invols = [p for p in psl_elements if p.order() == 2]
    triples = [p for p in psl_elements if p.order() == 3]
    for t in invols:
        for c in triples:
            closed = close_subgroup([t, c], 11, 61)
            if closed is not None and len(closed) == 60:
                key = frozenset(p.images for p in closed)
                if key not in seen_sets:
                    seen_sets.add(key)
                    a5_subgroups.append((key, [t, c]))
    log(f"found {len(a5_subgroups)} distinct A5 subgroups")

    def conjugate_class(key):
        out = set()
        for g in psl_elements:
            gi = inverse(g)
            out.add(frozenset(compose(compose(gi, Permutation(s)), g).images for s in key))
        return out

    class_a = conjugate_class(a5_subgroups[0][0])
    rep_b = next((key, gens) for key, gens in a5_subgroups if key not in class_a)
    a5a_gens = reduce_generators(a5_subgroups[0][1], 11, 60)
    a5b_gens = reduce_generators(rep_b[1], 11, 60)
    assert rep_b[0] not in class_a

    log("the normalizer of a sylow 3-subgroup of M11 (order 144)")
    a3 = next(p for p in m11_elements if p.order() == 3)
    b3 = next(p for p in m11_elements
              if p.order() == 3 and compose(p, a3) == compose(a3, p)
              and p.images not in {q.images for q in close_subgroup([a3], 11, 4)})
    syl3 = close_subgroup([a3, b3], 11, 10)
    assert len(syl3) == 9
    m9_2 = normalizer_gens(m11_elements, syl3, 11, 144)

    emit(m11, "M11:11", "point stabilizer of M12 in the mongean-shuffle action",
         subgroups=[("PSL2(11)", psl_gens), ("11:5", sub_11_5), ("6:2", sub_6_2),
                    ("A5a", a5a_gens), ("A5b", a5b_gens), ("M9:2", m9_2)],
         expect_order=7920, expect_primitive=True)

    log("M11 on 12 points = cosets of PSL2(11)")
    act = coset_action(m11, psl_gens, name="M11:12")
    m11_12 = act.group
    rep = is_elusive(m11_12)
    assert rep.elusive is True
    emit(m11_12, "M11:12", "M11 on the cosets of PSL2(11); elusive",
         expect_order=7920, expect_primitive=True)

    log("PSL2(11) on 11 points = cosets of A5")
    psl12 = projective_line_psl2(11)
    emit(psl12, "PSL2(11):12", "PSL2(11) on the projective line",
         expect_order=660, expect_primitive=True)
    psl12_elements = elements_sorted(psl12)
    a5_in_psl12 = find_subgroup(psl12_elements, 12, 2, 3, 60)
    assert a5_in_psl12 is not None
    act = coset_action(psl12, a5_in_psl12, name="PSL2(11):11")
    emit(act.group, "PSL2(11):11", "PSL2(11) on the cosets of Alt(5)",
         expect_order=660, expect_primitive=True)

    # -- unitary group PSU3(3) ----------------------------------------------
    log("building PGU3(3) = PSU3(3) on the 28 isotropic points")
    f9 = GF(3, 2)

    def herm(u, v):
        acc = f9.zero
        for x, y in zip(u, v):
            acc = f9.add(acc, f9.mul(x, f9.pow(y, 3)))
        return acc

    pts3 = projective_points(f9, 3)
    iso_pts = [v for v in pts3 if herm(v, v) == f9.zero]
    assert len(iso_pts) == 28

    def unitary(M: Matrix) -> bool:
        basis = [tuple(f9.one if j == i else f9.zero for j in range(3)) for i in range(3)]
        for i in range(3):
            for j in range(3):
                expect = f9.one if i == j else f9.zero
                if herm(M.apply_row(basis[i]), M.apply_row(basis[j])) != expect:
                    return False
        return True

    unitary_gens = []
    perm_mats = [
        Matrix.from_lists(f9, [[0, 1, 0], [0, 0, 1], [1, 0, 0]]),
        Matrix.from_lists(f9, [[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
    ]
    for M in perm_mats:
        assert unitary(M)
        unitary_gens.append(M)
    norm_one = [a for a in f9.elements() if f9.mul(a, f9.pow(a, 3)) == f9.one]
    diag = Matrix(f9, (
        (norm_one[1], f9.zero, f9.zero),
        (f9.zero, f9.one, f9.zero),
        (f9.zero, f9.zero, f9.one),
    ))
    assert unitary(diag)
    unitary_gens.append(diag)
    # one non-monomial unitary found by brute force over 2x2 blocks
    block = None
    for a_int in range(9):
        if block:
            break
        for b_int in range(9):
            a, b = f9.from_int(a_int), f9.from_int(b_int)
            col1 = (a, b)
            if f9.add(f9.mul(a, f9.pow(a, 3)), f9.mul(b, f9.pow(b, 3))) != f9.one:
                continue
            for c_int in range(9):
                c = f9.from_int(c_int)
                for d_int in range(9):
                    d = f9.from_int(d_int)
                    if (f9.add(f9.mul(c, f9.pow(c, 3)), f9.mul(d, f9.pow(d, 3))) == f9.one
                            and f9.add(f9.mul(a, f9.pow(c, 3)), f9.mul(b, f9.pow(d, 3))) == f9.zero):
                        M = Matrix(f9, ((a, b, f9.zero), (c, d, f9.zero),
                                        (f9.zero, f9.zero, f9.one)))
                        if unitary(M) and not all(
                            sum(1 for x in row if x != f9.zero) == 1 for row in M.rows
                        ):
                            block = M
                            break
                if block:
                    break
            if block:
                break
    assert block is not None
    unitary_gens.append(block)

    u_perms = [projective_perm(M, iso_pts) for M in unitary_gens]
    g28 = PermGroup(u_perms, name="PSU3(3):28")
    log(f"unitary group on 28 points has order {g28.order()}")
    assert g28.order() == 6048

    g28_elements = elements_sorted(g28)
    l27 = find_subgroup(g28_elements, 28, 7, 2, 168)
    assert l27 is not None
    act = coset_action(g28, l27, name="PSU3(3):36")
    psu36 = act.group
    emit(psu36, "PSU3(3):36", "PSU3(3) on the cosets of PSL2(7)",
         expect_order=6048, expect_primitive=True)

    # -- symplectic group PSp4(3) --------------------------------------------
    log("building PSp4(3) on the 40 projective points")
    f3 = GF(3)
    pts40 = projective_points(f3, 4)
    assert len(pts40) == 40

    def symp(u, v):
        # split form with blocks [[0, I], [-I, 0]]
        acc = 0
        ui = [x[0] for x in u]
        vi = [x[0] for x in v]
        acc = (ui[0] * vi[2] + ui[1] * vi[3] - ui[2] * vi[0] - ui[3] * vi[1]) % 3
        return acc

    def transvection(v, lam):
        rows = []
        for i in range(4):
            basis = [0, 0, 0, 0]
            basis[i] = 1
            coef = lam * symp([f3.from_int(c) for c in basis],
                              [f3.from_int(c) for c in v]) % 3
            row = [(basis[j] + coef * v[j]) % 3 for j in range(4)]
            rows.append([f3.from_int(c) for c in row])
        return Matrix(f3, tuple(tuple(r) for r in rows))

    seed_vectors = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                    (1, 1, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1), (1, 1, 1, 1), (1, 2, 0, 1)]
    sp_mats = [transvection(v, 1) for v in seed_vectors]
    sp_perms = [projective_perm(M, pts40) for M in sp_mats]
    psp40 = PermGroup(sp_perms, name="PSp4(3):40")
    assert psp40.order() == 25920

    # note: the symplectic unipotent q^2 family lies in Sp4(3) but is not
    # semiregular on the 36 cosets; the order-9 semiregular witness there is
    # cyclic, found by scanning order-9 elements (see decisions ledger)
    fam = symplectic_unipotent_family(f3)
    for M in fam:
        assert psp40.membership(projective_perm(M, pts40))

    log("searching the index-36 subgroup of PSp4(3)")
    psp_elements = elements_sorted(psp40)
    fives = [p for p in psp_elements if p.order() == 5]
    invols = [p for p in psp_elements if p.order() == 2]
    found_36 = None
    for u in fives[:4]:
        for t in invols:
            closed = close_subgroup([u, t], 40, 721)
            if closed is None or len(closed) != 720:
                continue
            gens720 = reduce_generators([u, t], 40, 720)
            act = coset_action(psp40, gens720, name="PSp4(3):36")
            if act.group.is_transitive() and act.degree == 36:
                found_36 = (gens720, act)
                break
        if found_36:
            break
    assert found_36 is not None, "no index-36 subgroup found"
    gens720, act36 = found_36

    log("cyclic order-9 semiregular witness on the 36 points")
    g36 = act36.group
    witness9 = None
    for p in (Permutation(t) for t in g36.element_images()):
        if p.order() == 9 and is_semiregular_element(p):
            witness9 = p
            break
    assert witness9 is not None
    assert is_semiregular_subgroup([witness9], 36)

    emit(psp40, "PSp4(3):40", "Sp4(3) transvections acting on the projective points of PG(3,3)",
         subgroups=[("index36_stabilizer", gens720)],
         expect_order=25920, expect_primitive=True)
    emit(g36, "PSp4(3):36",
         "PSp4(3) on the cosets of the order-720 stabilizer; admits a cyclic "
         "order-9 semiregular subgroup",
         subgroups=[("semiregular9", [witness9])],
         expect_order=25920, expect_primitive=True)

    FILES["index.json"] = json.dumps(sorted(INDEX, key=lambda r: r["name"]), indent=1,
                                     sort_keys=True) + "\n"


def drift() -> list[str]:
    """The files under DATA_DIR that differ from the build, as report lines."""
    on_disk = {p.name: p.read_bytes() for p in DATA_DIR.glob("*.json")}
    lines = [f"missing: {n}" for n in sorted(FILES.keys() - on_disk.keys())]
    lines += [f"extra: {n}" for n in sorted(on_disk.keys() - FILES.keys())]
    lines += [f"changed: {n}" for n in sorted(FILES.keys() & on_disk.keys())
              if FILES[n].encode() != on_disk[n]]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare the build with src/drg/data and write nothing")
    args = parser.parse_args(argv)
    build()
    if args.check:
        lines = drift()
        for line in lines:
            print(line)
        log(f"catalog check: {len(FILES)} files built, {len(lines)} differ")
        return 1 if lines else 0
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    for old in DATA_DIR.glob("*.json"):
        old.unlink()
    for name, text in FILES.items():
        (DATA_DIR / name).write_text(text)
    log(f"catalog complete: {len(INDEX)} groups, {len(FILES)} files in {DATA_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
