import json
import random

import pytest

from drg.catalog import IntegrityError, load_group_file
from drg.cli import main as cli_main
from drg.perm import (
    Permutation,
    PermError,
    compose,
    cycle_string,
    cycle_type,
    fixed_points,
    inverse,
    is_derangement,
    parse_cycles,
    times,
)


def rand_perm(rng, n):
    images = list(range(n))
    rng.shuffle(images)
    return Permutation(images)


def test_identity_compose():
    p = parse_cycles("(0,1,2)", 5)
    e = Permutation.identity(5)
    assert compose(e, p) == p
    assert compose(p, e) == p


def test_compose_convention():
    # apply (0 1 2) first, then (0 1): pointwise this is the transposition (1 2)
    p = parse_cycles("(0,1,2)", 3)
    q = parse_cycles("(0,1)", 3)
    assert compose(p, q) == parse_cycles("(1,2)", 3)
    assert compose(p, q).images == (0, 2, 1)


def test_compose_degree_mismatch():
    with pytest.raises(PermError):
        compose(Permutation.identity(3), Permutation.identity(4))


def test_inverse():
    assert inverse(Permutation.identity(4)) == Permutation.identity(4)
    assert inverse(parse_cycles("(0,1,2)", 3)) == parse_cycles("(0,2,1)", 3)
    rng = random.Random(7)
    for _ in range(50):
        p = rand_perm(rng, rng.randrange(1, 12))
        assert compose(p, inverse(p)).is_identity()
        assert inverse(inverse(p)) == p


def test_times_is_the_image_tuple_product():
    rng = random.Random(11)
    for n in (1, 2, 40, 300):
        for _ in range(5):
            t, u = rand_perm(rng, n).images, rand_perm(rng, n).images
            assert times(t)(u) == tuple(map(u.__getitem__, t))


def test_inverses_of_one_degree_share_their_ints():
    rng = random.Random(5)
    p_inv, q_inv = inverse(rand_perm(rng, 600)).images, inverse(rand_perm(rng, 600)).images
    at = {x: i for i, x in enumerate(q_inv)}
    # ints above 256 are fresh objects unless both tuples took them from one source
    assert all(x is q_inv[at[x]] for x in p_inv)


def test_cycle_type():
    assert cycle_type(Permutation.identity(5)) == (1, 1, 1, 1, 1)
    assert cycle_type(parse_cycles("(0,1,2,3,4)", 5)) == (5,)
    # two fixed points and a 9-cycle on 11 points
    p = parse_cycles("(0,1,2,3,4,5,6,7,8)", 11)
    assert cycle_type(p) == (1, 1, 9)
    assert p.order() == 9
    assert len(fixed_points(p)) == 2


def test_cycle_type_partitions_degree():
    rng = random.Random(11)
    for _ in range(100):
        p = rand_perm(rng, rng.randrange(1, 15))
        assert sum(cycle_type(p)) == p.degree
        assert cycle_type(compose(p, inverse(p))) == tuple([1] * p.degree)


def test_is_derangement():
    assert not is_derangement(Permutation.identity(4))
    assert is_derangement(parse_cycles("(0,1)(2,3)", 4))
    assert not is_derangement(parse_cycles("(0,1,2)", 4))


def test_not_a_permutation():
    with pytest.raises(PermError):
        Permutation([0, 0, 1])
    with pytest.raises(PermError):
        Permutation([])


def test_pow_and_order():
    c = parse_cycles("(0,1,2,3,4,5)", 6)
    assert c ** 6 == Permutation.identity(6)
    assert c ** -1 == inverse(c)
    assert (c ** 2).order() == 3
    assert c.order() == 6


def test_parse_roundtrip():
    rng = random.Random(3)
    for _ in range(40):
        p = rand_perm(rng, rng.randrange(2, 10))
        assert parse_cycles(cycle_string(p), p.degree) == p


def test_parse_one_based():
    p = parse_cycles("(1,2,3)", 3, one_based=True)
    assert p == parse_cycles("(0,1,2)", 3)


# -- products are trusted, images from outside are checked ----------------------


def test_images_from_outside_must_be_bijections(tmp_path, capsys):
    with pytest.raises(PermError):
        Permutation([0, 0, 2])
    for text in ("(0,1)(1,2)", "(0,1,0)"):  # a point repeated across or within cycles
        with pytest.raises(PermError):
            parse_cycles(text, 3)
    # a group file whose generator is no bijection: an integrity error, exit 3
    group_file = tmp_path / "bad_group.json"
    group_file.write_text(json.dumps({"name": "bad", "degree": 3, "generators": [[1, 1, 0]]}))
    with pytest.raises(IntegrityError):
        load_group_file(group_file)
    assert cli_main(["analyze", str(group_file)]) == 3
    # a clique certificate with a vertex that is no bijection: a bad file, exit 3
    cert_file = tmp_path / "bad_clique.json"
    cert_file.write_text(json.dumps({"type": "clique", "degree": 3,
                                     "vertices": [[0, 1, 2], [1, 2, 2]]}))
    assert cli_main(["verify-cert", str(cert_file)]) == 3
    assert "bad certificate file" in capsys.readouterr().err


def test_products_inverses_and_powers_match_their_formulas():
    # compose, inverse, identity and ** skip the bijection check; their results
    # must still be the reference maps, and bijections
    rng = random.Random(17)
    for n in range(1, 13):
        for _ in range(25):
            p, q = rand_perm(rng, n), rand_perm(rng, n)
            k = rng.randrange(-8, 9)
            pq, p_inv, p_k = compose(p, q), inverse(p), p ** k
            assert pq.images == tuple(q.images[p.images[i]] for i in range(n))
            assert all(p_inv.images[p.images[i]] == i for i in range(n))
            step = p.images if k >= 0 else p_inv.images
            power = list(range(n))
            for _ in range(abs(k)):
                power = [step[x] for x in power]
            assert p_k.images == tuple(power)
            for r in (pq, p_inv, p_k, Permutation.identity(n)):
                assert sorted(r.images) == list(range(n))
                assert r.is_identity() == (r.images == tuple(range(n)))
