import importlib.util
import itertools
import json
from math import prod
from pathlib import Path

import pytest

import drg
from drg.catalog import catalog_index, catalog_load, data_dir
from drg.checks import (
    Budgets,
    CheckError,
    analyze,
    check_ids,
    corpus_scan,
    quick_k_clique,
    run_check,
    sampled_k_clique,
)
from drg.cli import main as cli_main
from drg.graph import are_adjacent, density_bounds
from drg.group import PermGroup, close_subgroup
from drg.oracles import (
    _adjacency_bitsets,
    closure_order,
    exhaustive_max_clique,
    exhaustive_max_coclique,
    exhaustive_max_semiregular,
)
from drg.perm import Permutation, parse_cycles


def test_check_registry_covers_acceptance():
    ids = check_ids()
    for required in (
        "m11-deg12-elusive",
        "exceptional-4cliques",
        "m11-coset-semireg-orders",
        "thm13-exceptional-maxima",
        "alt5-2subsets-density",
        "corpus-jordan-triangle",
        "corpus-density-upper",
        "numth-dominance-300",
        "numth-zsigmondy-table",
        "numth-cyclotomic-identity",
        "unipotent-families",
        "ppd-block-witnesses",
        "singer-minus-orders",
        "psp43-deg36-semiregular9",
        "wreath-fpf-oracle",
        "m11wr2-elusive",
        "m11wr2-product-clique",
        "oracle-equivalence",
    ):
        assert required in ids


def test_unregistered_check():
    with pytest.raises(CheckError):
        run_check("not-a-check")


def test_run_check_report_shape():
    rep = run_check("numth-cyclotomic-identity")
    assert rep.verdict == "pass"
    d = rep.to_json_dict()
    assert d["check_id"] == "numth-cyclotomic-identity"
    assert d["claim"]
    assert "wall_time_s" in d
    stripped = rep.to_json_dict(include_timing=False)
    assert "wall_time_s" not in stripped


def test_analyze_deterministic():
    a = analyze("A5:6")
    b = analyze("A5:6")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a["order"] == 60
    assert a["primitive"] is True
    assert a["max_semiregular_order"] == 3
    assert a["clique_lower_bound"] == 4
    assert a["elusive"] is False


def test_analyze_enumerates_each_group_once(monkeypatch):
    # every enumeration, the census's and iter_images's, walks
    # level_transversals; each element the walk yields stands for one
    # element per choice of a transversal entry at each level above it
    G = catalog_load("M12:12").group
    level_transversals = PermGroup.level_transversals
    yielded = 0

    def counted(self, *args, **kwargs):
        transversals, walk = level_transversals(self, *args, **kwargs)
        above = prod(map(len, transversals))

        def counted_walk():
            nonlocal yielded
            for p in walk:
                yielded += above
                yield p

        return transversals, counted_walk()

    monkeypatch.setattr(PermGroup, "level_transversals", counted)
    analyze("M12:12")
    # one census pass, plus the short derangement prefixes of the greedy
    # cliques; the lower bound holds only if the census walk was counted
    assert G.order() <= yielded < 1.1 * G.order()


def test_analyze_a9_36_census_walks_one_coset_per_suborbit(monkeypatch):
    # A9 on 2-subsets has rank 3 and |G_a| = 5040: the census tests the two
    # cosets D_r, one per suborbit of G_a, and walks the cycles of their
    # 4,348 derangements only, not of all their 10,080 elements nor of G's
    # 78,092 derangements
    import drg.semireg

    assert catalog_load("A9:36").group.stabilizer_order() == 5040
    walk = drg.semireg.common_cycle_length
    calls = 0

    def counted(images):
        nonlocal calls
        calls += 1
        return walk(images)

    monkeypatch.setattr(drg.semireg, "common_cycle_length", counted)
    rep = analyze("A9:36")
    assert rep["derangement_count"] == 78_092
    assert calls == 4348


def test_analyze_matches_the_benchmark_reference_on_the_catalog():
    # the census-backed fields of every catalog report against the answers
    # the benchmark was anchored on
    path = Path(__file__).resolve().parents[1] / "bench" / "reference.json"
    reference = json.loads(path.read_text())["analyze-catalog"]
    assert sorted(reference) == sorted(rec["name"] for rec in catalog_index())
    for name, ref in reference.items():
        rep = analyze(name)
        for key in ("derangement_count", "elusive", "elusive_witness_order"):
            assert rep.get(key) == ref.get(key), (name, key)
        if ref.get("max_semiregular_closed"):
            assert rep["max_semiregular_order"] == ref["max_semiregular_order"], name


def test_analyze_a7_semiregular_search_closes():
    rep = analyze("A7:7")
    assert rep["max_semiregular_closed"] is True
    assert rep["max_semiregular_order"] == 7


def test_analyze_regular_group_density():
    rep = analyze("C5:5", deep=True)
    assert rep["density"]["rho_lower"] == "1"
    assert rep["density"]["rho_upper"] == "1"


def test_analyze_deep_runs_the_exact_searches_above_order_5000():
    # M11:12 (order 7920) is elusive, so no witness closes rho: without deep
    # the density stays an interval, with it the exact searches close rho = 1
    shallow = analyze("M11:12")
    assert shallow["density"]["status"] == "partial"
    assert (shallow["density"]["rho_lower"], shallow["density"]["rho_upper"]) == ("1", "3")
    assert shallow["density"]["best_clique"] == 4
    deep = analyze("M11:12", deep=True)
    assert deep["density"] == density_bounds(catalog_load("M11:12").group).to_json_dict()
    assert deep["density"]["rho_lower"] == deep["density"]["rho_upper"] == "1"
    assert deep["density"]["clique_optimal"] and deep["density"]["coclique_optimal"]
    assert {k: v for k, v in deep.items() if k != "density"} == \
        {k: v for k, v in shallow.items() if k != "density"}


def test_analyze_witness_density_matches_density_bounds_on_the_catalog():
    # a semiregular witness of order n closes rho = 1 without search; the
    # report is the one the exact searches give
    checked = 0
    for rec in catalog_index():
        if not rec["transitive"] or rec["order"] > 5000:
            continue
        rep = analyze(rec["name"])
        if rep["max_semiregular_order"] == rep["degree"]:
            G = catalog_load(rec["name"]).group
            assert rep["density"] == density_bounds(G).to_json_dict(), rec["name"]
            checked += 1
    assert checked >= 20


def _refuse(*args, **kwargs):
    raise AssertionError("a search or a clique check run")


@pytest.mark.parametrize("name", ["A9:9", "C300"])
def test_analyze_closes_density_from_a_regular_witness_without_search(
        tmp_path, monkeypatch, name):
    # the witness answers the whole ladder and is checked as a semiregular
    # subgroup, never rebuilt as a clique certificate
    monkeypatch.setattr(drg.checks, "density_bounds", _refuse)
    monkeypatch.setattr(drg.graph, "_LazyAdjacency", _refuse)
    monkeypatch.setattr(drg.checks, "quick_k_clique", _refuse)
    monkeypatch.setattr(drg.checks, "validate_clique", _refuse)
    source = name
    if name == "C300":
        source = tmp_path / "c300.json"
        source.write_text(json.dumps(
            {"name": name, "degree": 300, "generators": [[(i + 1) % 300 for i in range(300)]]}))
    rep = analyze(source)
    density = rep["density"]
    assert density["status"] == "ok"
    assert density["rho_lower"] == density["rho_upper"] == "1"
    assert density["clique_optimal"] and density["coclique_optimal"]
    assert density["best_clique"] == rep["degree"] == rep["max_semiregular_order"]
    assert density["best_coclique"] == rep["stabilizer_order"]


def test_analyze_partial_density_takes_the_semiregular_clique():
    # above order 5000 with m < n, the witness of order m caps rho at n / m
    rep = analyze("PSp4(3):40")
    assert rep["max_semiregular_order"] == 20
    assert rep["density"] == {"status": "partial", "rho_lower": "1", "rho_upper": "2",
                              "best_clique": 20, "clique_optimal": False,
                              "coclique_optimal": False}


def test_analyze_over_budget_group_three_valued():
    from drg.constructions import natural_alt
    from drg.catalog import GroupFile

    G = natural_alt(10)  # order 1814400 > default element budget
    gf = GroupFile("A10:10", G, {}, "")
    rep = analyze(gf)
    assert rep["derangement_count"] is None
    assert rep["elusive"] is None
    assert rep["max_semiregular_order"] is None
    assert rep["clique_lower_bound"] in (3, 4)  # sampled lower bound
    assert rep["clique_lower_bound_method"] == "sampled"


def test_analyze_clique_ladder_matches_the_exhaustive_clique_number():
    # the ladder reports the largest k <= 4 with a k-clique; the oracle shares
    # no code with the greedy prefix or the exact search
    checked = 0
    for rec in catalog_index():
        if not rec["transitive"] or rec["order"] > 720:
            continue
        omega = exhaustive_max_clique(catalog_load(rec["name"]).group)
        assert analyze(rec["name"])["clique_lower_bound"] == min(4, omega), rec["name"]
        checked += 1
    assert checked >= 20


def test_analyze_searches_the_ladder_only_above_the_witness_order(monkeypatch):
    # a witness of order m answers every rung k <= m; over the catalog only
    # the eight groups whose witness order is below 4 search for a clique
    quick = drg.checks.quick_k_clique
    calls = []

    def recorded(G, k, budgets):
        calls.append((name, k))
        return quick(G, k, budgets)

    monkeypatch.setattr(drg.checks, "quick_k_clique", recorded)
    orders = {}
    for rec in catalog_index():
        name = rec["name"]
        orders[name] = analyze(name)["max_semiregular_order"]
    assert all(orders[name] < k for name, k in calls), calls
    assert sorted({name for name, _ in calls}) == [
        "A4:6", "A5:6", "A6:6", "C2:2", "C3:3", "M11:12", "PSU3(3):36", "S3:3"]
    assert len(calls) == 9


def test_quick_k_clique_matches_exact_on_small():
    for name in ("S3:3", "C4:4", "A4:6"):
        G = catalog_load(name).group
        status, cert = quick_k_clique(G, 3, Budgets())
        from drg.graph import find_k_clique

        exact = find_k_clique(G, 3)
        assert (status == "found") == (exact.status == "found")


def test_sampled_k_clique_sound():
    from drg.constructions import natural_alt

    G = natural_alt(10)
    cert = sampled_k_clique(G, 3)
    assert cert is not None
    for a, b in itertools.combinations(cert.vertices, 2):
        assert are_adjacent(a, b)


def test_corpus_scan_small_dir(tmp_path):
    src = data_dir()
    for rec in ("c5_5.json", "s3_3.json", "a5_6.json"):
        (tmp_path / rec).write_text((src / rec).read_text())
    (tmp_path / "broken.json").write_text("{not json")
    result = corpus_scan(tmp_path)
    assert result["integrity_failures"] == 1
    rows = {r["file"]: r for r in result["rows"]}
    assert rows["broken.json"]["integrity"] == "error"
    assert rows["c5_5.json"]["integrity"] == "ok"
    assert rows["c5_5.json"]["order"] == 5


def test_corpus_scan_is_stateless(tmp_path):
    # the row cache earlier builds kept in the scanned directory; its name is
    # split so that a search for it finds no code that still reads or writes it
    leftover = ".drg" "_cache.json"
    src = data_dir()
    for rec in ("c5_5.json", "s3_3.json"):
        (tmp_path / rec).write_bytes((src / rec).read_bytes())
    (tmp_path / leftover).write_text('{"stale": {"file": "c5_5.json", "order": 0}}')
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    first = json.dumps(corpus_scan(tmp_path), sort_keys=True)
    second = json.dumps(corpus_scan(tmp_path), sort_keys=True)
    assert first == second
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    rows = json.loads(first)["rows"]
    assert [row["file"] for row in rows] == ["c5_5.json", "s3_3.json"]
    assert rows[0]["order"] == 5


def test_corpus_scan_empty_dir(tmp_path):
    result = corpus_scan(tmp_path)
    assert result["rows"] == [] and result["integrity_failures"] == 0


# -- oracle sanity ------------------------------------------------------------------


def brute_max_clique(G):
    elements = [Permutation(t) for t in G.element_images()]
    best = 1
    for size in range(2, len(elements) + 1):
        hit = False
        for combo in itertools.combinations(elements, size):
            if all(are_adjacent(a, b) for a, b in itertools.combinations(combo, 2)):
                hit = True
                break
        if hit:
            best = size
        else:
            break
    return best


def test_oracles_against_naive_enumeration():
    for name in ("S3:3", "C4:4", "C6:6", "A4:4"):
        G = catalog_load(name).group
        assert closure_order(G) == G.order()
        assert exhaustive_max_clique(G) == brute_max_clique(G)
    # naive alpha for S3: intersecting families in S3 have size <= 2
    S3 = catalog_load("S3:3").group
    assert exhaustive_max_coclique(S3) == 2
    assert exhaustive_max_semiregular(S3) == 3
    # each oracle's ceiling where it binds and where it does not; the values
    # are the oracle-equivalence rows of bench/reference.json
    for name, alpha in (("PSL2(7):7", 24), ("PSL2(7):8", 21),  # alpha = |G|/omega
                        ("A5:6", 10)):                          # below 60/4 = 15
        assert exhaustive_max_coclique(catalog_load(name).group) == alpha, name
    for name, order in (("PSL2(7):8", 8),              # stops at the degree
                        ("A5:6", 3), ("S5:10", 5)):    # the full walk
        assert exhaustive_max_semiregular(catalog_load(name).group) == order, name


def test_semiregular_oracle_matches_the_benchmark_reference():
    # read-only: the answers bench/reference.json records; the oracle's Lagrange
    # skip must never drop a subgroup of order exactly the degree (C6:6, PSL2(7):8)
    reference = json.loads(
        (Path(__file__).resolve().parents[1] / "bench" / "reference.json").read_text())
    oracle_rows = reference["verify-all"]["oracle-equivalence"]["answer"]
    analyzed = reference["analyze-catalog"]
    pinned = 0
    for rec in catalog_index():
        if rec["order"] > 720:
            continue
        name = rec["name"]
        if name in oracle_rows:
            expected = oracle_rows[name]["max_semiregular"]
        else:
            # above the benchmark's oracle cut: analyze's maximum, closed or the degree
            row = analyzed[name]
            assert row["max_semiregular_closed"] or row["max_semiregular_order"] == rec["degree"]
            expected = row["max_semiregular_order"]
        assert exhaustive_max_semiregular(catalog_load(name).group) == expected, name
        pinned += 1
    assert pinned == 27 and len(oracle_rows) == 24


def test_semiregular_oracle_closes_few_joins(monkeypatch):
    # the walk's pruning by orders; 3,735 closures measured
    calls = 0

    def counting(gens, degree, cap):
        nonlocal calls
        calls += 1
        return close_subgroup(gens, degree, cap)

    monkeypatch.setattr(drg.oracles, "close_subgroup", counting)
    for rec in catalog_index():
        if rec["order"] <= 360:
            exhaustive_max_semiregular(catalog_load(rec["name"]).group)
    assert calls <= 3_990, calls


def test_oracle_adjacency_rows_match_definition():
    for rec in catalog_index():
        if rec["order"] > 360:
            continue
        images = catalog_load(rec["name"]).group.element_images()
        for complement in (False, True):
            rows = _adjacency_bitsets(images, complement)
            for i, gi in enumerate(images):
                want = sum(1 << j for j, gj in enumerate(images)
                           if j != i and all(a != b for a, b in zip(gi, gj)) != complement)
                assert rows[i] == want, (rec["name"], complement, i)


# -- CLI ----------------------------------------------------------------------------


def test_cli_analyze(capsys):
    rc = cli_main(["analyze", "S3:3"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["order"] == 6


def test_cli_analyze_unknown(capsys):
    rc = cli_main(["analyze", "Nope:1"])
    assert rc == 3


def test_cli_verify_single(capsys):
    rc = cli_main(["verify", "numth-cyclotomic-identity"])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_numth(capsys):
    for argv, expected in (
        (["radical", "24"], "6"),
        (["gpf", "24"], "3"),
        (["ppd", "3", "4"],
         '{"q": 3, "t": 4, "primitive_divisors": [5], "exceptional": false}'),
        (["cyclotomic", "4", "3"], "10"),
        (["phi-star", "4", "3"], "5"),
        (["sylvester", "10", "3"], "5"),
        (["bertrand", "9"], "5"),
        (["dominance", "9"], "6\t1\n6\t5\n8\t1\n8\t7\n9\t1\n9\t2\n9\t7\n9\t8"),
        (["power-factorial", "5"], "True"),
        (["radical", "24", "99"], "6"),  # an extra argument is ignored
    ):
        assert cli_main(["numth", *argv]) == 0, argv
        assert capsys.readouterr().out == expected + "\n", argv
    assert cli_main(["numth", "ppd", "7", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["exceptional"] is True
    for argv, message in ((["radical", "-3"], "error: "),
                          (["ppd", "7"], "error: list index out of range"),
                          (["radical", "x"], "error: invalid literal for int()")):
        assert cli_main(["numth", *argv]) == 3, argv
        captured = capsys.readouterr()
        assert captured.err.startswith(message) and captured.out == "", argv
    assert _exit_code(["numth", "no-such-operation", "3"]) == 3


def test_cli_density(tmp_path, capsys):
    rc = cli_main(["density", "C5:5"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["rho_lower"] == "1" and out["rho_upper"] == "1"
    assert out["clique_optimal"] and out["coclique_optimal"]
    # neither search closes in one node: rho is an interval, an unknown verdict
    assert cli_main(["density", "A5:10", "--budget-nodes", "1"]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "ok"
    assert not out["clique_optimal"] and not out["coclique_optimal"]
    # an intransitive group has no density: exit 3 with a message, never a traceback
    path = tmp_path / "triv.json"
    path.write_text(json.dumps({"name": "triv", "degree": 3, "generators": [[0, 1, 2]]}))
    assert cli_main(["density", str(path)]) == 3
    assert "error: density bounds need a transitive group" in capsys.readouterr().err


_MALFORMED_GROUP_FILES = {
    "a number": "5",
    "generators not a list": json.dumps({"name": "g", "degree": 3, "generators": 5}),
    "subgroup without generators": json.dumps(
        {"name": "g", "degree": 3, "generators": [[1, 2, 0]], "subgroups": [{"name": "s"}]}),
    "degree a string": json.dumps({"name": "g", "degree": "3", "generators": ["(0,1,2)"]}),
    "subgroup generator of another degree": json.dumps(
        {"name": "g", "degree": 3, "generators": [[1, 2, 0]],
         "subgroups": [{"name": "s", "generators": [[1, 0]]}]}),
    # "no" is truthy: read as a bool, it would load (1,2,3) one-based as (0,1,2)
    "one_based a string": json.dumps(
        {"name": "g", "degree": 4, "one_based": "no", "generators": ["(1,2,3)"]}),
    "not UTF-8": b"\xff\xfe{",
    "a directory": None,
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_GROUP_FILES))
def test_malformed_group_file_is_an_integrity_error(tmp_path, capsys, case):
    # exit 3 with a message, never a traceback, and a corpus scan lists the
    # file as an integrity failure instead of stopping
    content = _MALFORMED_GROUP_FILES[case]
    path = tmp_path / "g.json"
    if content is None:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    for command in ("analyze", "density"):
        capsys.readouterr()
        assert cli_main([command, str(path)]) == 3, command
        assert capsys.readouterr().err.startswith("error: "), command
    result = corpus_scan(tmp_path)
    assert result["integrity_failures"] == 1
    assert result["rows"][0]["file"] == "g.json"
    assert result["rows"][0]["integrity"] == "error"


def test_cli_corpus(tmp_path, capsys):
    src = data_dir()
    (tmp_path / "c5_5.json").write_text((src / "c5_5.json").read_text())
    rc = cli_main(["corpus", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "C5:5" in out


def _load_peak_gates():
    path = Path(__file__).resolve().parents[1] / "tools" / "peak_gates.py"
    spec = importlib.util.spec_from_file_location("peak_gates", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_corpus_on_a_regular_group_of_degree_1000(tmp_path):
    # C_1000's regular subgroup is a 1,000-vertex clique, deeper than Python's
    # default recursion limit. It closes rho = 1 with no density search: the
    # scan peaked at about 70 MB RSS (Linux), and at 224 MB with the search
    n = 1000
    (tmp_path / "c1000.json").write_text(json.dumps(
        {"name": "C1000", "degree": n, "generators": [[(i + 1) % n for i in range(n)]]}))
    (tmp_path / "a5_6.json").write_text((data_dir() / "a5_6.json").read_text())
    out, peak_mb = _load_peak_gates().run_drg(["corpus", str(tmp_path), "--json"])
    assert out.returncode == 0, out.stderr[-2000:]
    rows = {row["name"]: row for row in json.loads(out.stdout)["rows"]}
    assert sorted(rows) == ["A5:6", "C1000"]
    assert all(row["integrity"] == "ok" for row in rows.values())
    density = rows["C1000"]["density"]
    assert density["rho_lower"] == density["rho_upper"] == "1"
    assert peak_mb < 120, peak_mb


def test_peak_gate_of_m12_runs_through_the_tool():
    # the large-degree gates run outside the tests; this row keeps the runner
    # itself under test, and a missing group is a FAIL line, not a traceback
    gates = _load_peak_gates()
    row = next(row for row in gates.GATES if row[0] == ["density", "M12:12"])
    passed, line = gates.check_gate(*row)
    assert passed, line
    assert line.startswith("PASS  drg density M12:12: exit 0, rho [1, 1], peak "), line
    passed, line = gates.check_gate(["density", "no-such"], 40)
    assert not passed, line
    assert line.startswith("FAIL  drg density no-such: exit 3, rho [None, None], peak "), line
    assert line.endswith("\n    error: unknown catalog name 'no-such'; see catalog_names()"), line


def test_cli_corpus_missing_directory(tmp_path, capsys):
    # a missing directory is a usage error, not an empty corpus
    assert cli_main(["corpus", str(tmp_path / "no-such-dir")]) == 3
    captured = capsys.readouterr()
    assert "error: not a directory" in captured.err
    assert captured.out == ""


def _exit_code(argv) -> int:
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    return exc.value.code


def test_cli_usage_errors_exit_3(capsys):
    assert _exit_code(["verify"]) == 3  # no check id
    assert _exit_code(["no-such-command"]) == 3
    assert _exit_code(["density", "A5:10", "--budget-nodes", "many"]) == 3
    assert _exit_code(["--help"]) == 0
    assert _exit_code(["--version"]) == 0


def test_cli_rejects_a_non_positive_budget(capsys):
    # a zero budget used to be read as "no flag" and ran at the default;
    # only verify takes --budget-degree
    for command, flag in (("density", "--budget-elems"), ("density", "--budget-nodes"),
                          ("verify", "--budget-degree")):
        target = "m11-deg12-elusive" if command == "verify" else "A5:10"
        for value in ("0", "-5"):
            assert _exit_code([command, target, flag, value]) == 3
            assert "budget must be a positive integer" in capsys.readouterr().err


def test_cli_budget_degree_is_a_verify_flag_only(capsys):
    # analyze, density and corpus never read the coset-action degree budget
    assert _exit_code(["analyze", "A5:10", "--budget-degree", "5"]) == 3
    assert "unrecognized arguments: --budget-degree 5" in capsys.readouterr().err
    for argv in (["density", "A5:10"], ["corpus", "."]):
        assert _exit_code([*argv, "--budget-degree", "5"]) == 3


def test_cli_budget_flags_reach_the_searches(capsys):
    # one node closes neither search of A5:10; the default closes both
    cli_main(["density", "A5:10", "--budget-nodes", "1"])
    out = json.loads(capsys.readouterr().out)
    assert not out["clique_optimal"] and not out["coclique_optimal"]
    cli_main(["density", "A5:10"])
    out = json.loads(capsys.readouterr().out)
    assert out["clique_optimal"] and out["coclique_optimal"]


def test_cli_verify_cert_roundtrip(tmp_path, capsys):
    from drg.graph import max_clique

    G = catalog_load("S3:3").group
    cert = max_clique(G).certificate
    path = tmp_path / "clique.json"
    path.write_text(json.dumps(cert.to_json_dict()))
    assert cli_main(["verify-cert", str(path)]) == 0
    assert "VALID" in capsys.readouterr().out

    # corrupt it: duplicate a vertex
    payload = cert.to_json_dict()
    payload["vertices"].append(payload["vertices"][-1])
    path.write_text(json.dumps(payload))
    assert cli_main(["verify-cert", str(path)]) == 1
    assert "INVALID" in capsys.readouterr().out


@pytest.mark.parametrize("kind, second", [("clique", [1, 2, 0, 4, 3]),
                                          ("coclique", [0, 2, 1, 4, 3])])
def test_cli_verify_cert_rejects_mixed_degree(tmp_path, capsys, kind, second):
    # on the first three points the pair is valid, so a scan that zips image
    # tuples of unequal length would accept it
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"type": kind, "degree": 3,
                                "vertices": [[0, 1, 2], second]}))
    assert cli_main(["verify-cert", str(path)]) == 1
    assert "INVALID" in capsys.readouterr().out


def test_cli_verify_cert_rejects_wrong_degree_field(tmp_path, capsys):
    path = tmp_path / "clique.json"
    payload = {"type": "clique", "degree": 4, "vertices": [[0, 1, 2], [1, 2, 0]]}
    path.write_text(json.dumps(payload))
    assert cli_main(["verify-cert", str(path)]) == 1
    assert "INVALID: degree field 4" in capsys.readouterr().out
    payload["degree"] = 3
    path.write_text(json.dumps(payload))
    assert cli_main(["verify-cert", str(path)]) == 0


def test_cli_verify_cert_semiregular(tmp_path, capsys):
    gf = catalog_load("PSp4(3):36")
    payload = {
        "type": "semiregular",
        "group": "PSp4(3):36",
        "degree": 36,
        "order": 9,
        "method": "catalog",
        "generators": [list(g.images) for g in gf.subgroups["semiregular9"]],
    }
    path = tmp_path / "w.json"
    path.write_text(json.dumps(payload))
    assert cli_main(["verify-cert", str(path)]) == 0
    payload["order"] = 11
    path.write_text(json.dumps(payload))
    assert cli_main(["verify-cert", str(path)]) == 1
    # generators of another degree: at degree 2 the first one reads as a
    # transposition, a valid witness of order 2; at degree 6 its closure
    # would index past its images
    for degree, gens in ((2, [[1, 0, 2, 3]]), (6, [[1, 0, 2, 3]]), (3, [[1, 0, 3, 2]])):
        path.write_text(json.dumps({"type": "semiregular", "degree": degree,
                                    "order": 2, "generators": gens}))
        capsys.readouterr()
        assert cli_main(["verify-cert", str(path)]) == 1, degree
        assert "INVALID" in capsys.readouterr().out, degree


def test_cli_verify_cert_bad_file(tmp_path, capsys):
    # each is no certificate at all: exit 3 with a message, never a traceback
    bad_files = {
        "broken JSON": "{broken",
        "top-level array": "[]",
        "vertex not a permutation": json.dumps({"type": "clique",
                                                "vertices": [[0, 1, 2], [0, 0, 1]]}),
        "generator not a permutation": json.dumps({"type": "semiregular", "degree": 3,
                                                   "order": 2, "generators": [[1, 1, 0]]}),
        "degree a string": json.dumps({"type": "semiregular", "degree": "3",
                                       "order": 3, "generators": [[1, 2, 0]]}),
        "order a float": json.dumps({"type": "semiregular", "degree": 3,
                                     "order": 3.0, "generators": [[1, 2, 0]]}),
        "degree a bool": json.dumps({"type": "semiregular", "degree": True,
                                     "order": 1, "generators": [[0]]}),
        "clique degree a string": json.dumps({"type": "clique", "degree": "3",
                                              "vertices": [[0, 1, 2], [1, 2, 0]]}),
    }
    for case, text in bad_files.items():
        path = tmp_path / "junk.json"
        path.write_text(text)
        assert cli_main(["verify-cert", str(path)]) == 3, case
        assert "error: bad certificate file" in capsys.readouterr().err, case


@pytest.mark.parametrize("payload", [
    {"type": "clique", "vertices": [[0.0, 1.0, 2.0], [1, 2, 0], [2.0, 0, 1]]},
    {"type": "clique", "vertices": [[False, True], [True, False]]},
    {"type": "coclique", "vertices": [[0, 1, 2], [0.0, 2, 1]]},
    {"type": "semiregular", "degree": 3, "order": 3, "generators": [[1.0, 2.0, 0.0]]},
    {"type": "semiregular-bound", "degree": 3, "order": 3, "generators": [[1, 2, 0]],
     "exclusions": [{"excluded_order": 3, "prime": 3, "element": [1.0, 2, 0]}]},
], ids=["clique-floats", "clique-bools", "coclique-float", "semiregular-floats",
        "bound-element-float"])
def test_cli_verify_cert_rejects_points_that_are_no_ints(tmp_path, capsys, payload):
    # group files take only int points; a certificate's permutations follow
    # the same rule, so 1.0 and true are no points
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(payload))
    assert cli_main(["verify-cert", str(path)]) == 3
    out, err = capsys.readouterr()
    assert "VALID" not in out
    assert "error: bad certificate file: a permutation must be a list of integer points" in err


def test_cli_verify_cert_rejects_a_witness_without_generators(tmp_path, capsys, monkeypatch):
    # rejected before any closure: the degree alone would size an identity
    import drg.semireg

    def no_closure(*args, **kwargs):
        raise AssertionError("closure built for an empty generator list")

    monkeypatch.setattr(drg.semireg, "close_subgroup", no_closure)
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"type": "semiregular", "degree": 5, "order": 1,
                                "generators": []}))
    assert cli_main(["verify-cert", str(path)]) == 1
    assert "INVALID: witness has no generators" in capsys.readouterr().out


_ROTATIONS = [[1, 2, 0], [2, 0, 1]]  # a 2-clique without the identity


@pytest.mark.parametrize("value", ["false", 0, None, 1], ids=["string", "zero", "null", "one"])
def test_cli_verify_cert_rejects_a_require_identity_that_is_no_bool(tmp_path, capsys, value):
    # read by truthiness, "false" demanded the identity and 0 or null waived it
    path = tmp_path / "clique.json"
    path.write_text(json.dumps({"type": "clique", "vertices": _ROTATIONS,
                                "require_identity": value}))
    assert cli_main(["verify-cert", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: bad certificate file: require_identity must be true or false" in err


@pytest.mark.parametrize("field, code, out", [
    ({"require_identity": False}, 0, "VALID\n"),
    ({"require_identity": True}, 1, "INVALID: clique certificate must contain the identity\n"),
    ({}, 1, "INVALID: clique certificate must contain the identity\n"),
], ids=["false", "true", "absent"])
def test_cli_verify_cert_reads_require_identity_as_a_bool(tmp_path, capsys, field, code, out):
    path = tmp_path / "clique.json"
    path.write_text(json.dumps({"type": "clique", "vertices": _ROTATIONS, **field}))
    assert cli_main(["verify-cert", str(path)]) == code
    assert capsys.readouterr().out == out


PSP43_40_BOUND = Path(__file__).resolve().parent / "data" / "psp43_40_semiregular_bound.json"


def _element_of_order_2(payload):
    # a power of the first product of two generators of even order
    gens = [Permutation(v) for v in payload["generators"]]
    g = next(g * h for g in gens for h in gens if (g * h).order() % 2 == 0)
    return g ** (g.order() // 2)


def test_cli_verify_cert_semiregular_bound(tmp_path, capsys):
    assert cli_main(["verify-cert", str(PSP43_40_BOUND)]) == 0
    assert capsys.readouterr().out == "VALID\n"
    payload = json.loads(PSP43_40_BOUND.read_text())
    involution = list(_element_of_order_2(payload).images)
    five_cycle = list(parse_cycles("(0,1,2,3,4)", 40).images)
    tampered = {
        "20 divides |N_G(P)| = 20": {"excluded_order": 20},
        "2 is no prime exactly dividing": {"prime": 2, "element": involution},
        "does not lie in G": {"element": five_cycle},
        "has order 2, not 5": {"element": involution},
        "may have 6 Sylow 5-subgroups": {"excluded_order": 30},
        # 5 times a prime near 10^12: rejected before the Sylow arithmetic,
        # whose trial division would run for hours
        "5000000000195 does not divide |G| = 25920": {"excluded_order": 5000000000195},
    }
    path = tmp_path / "bound.json"
    for message, change in tampered.items():
        bad = json.loads(PSP43_40_BOUND.read_text())
        bad["exclusions"][0].update(change)
        path.write_text(json.dumps(bad))
        assert cli_main(["verify-cert", str(path)]) == 1, message
        assert message in capsys.readouterr().out, message
    for key, value in (("order", 25920.0), ("degree", "40"), ("excluded_order", "40")):
        bad = json.loads(PSP43_40_BOUND.read_text())
        (bad["exclusions"][0] if key == "excluded_order" else bad)[key] = value
        path.write_text(json.dumps(bad))
        assert cli_main(["verify-cert", str(path)]) == 3, key
        assert "error: bad certificate file" in capsys.readouterr().err, key


def test_validate_semiregular_bound_needs_no_census_or_search(capsys, monkeypatch):
    import drg.semireg

    def fail(*args, **kwargs):
        raise AssertionError("the checker called the census or the search")

    monkeypatch.setattr(drg.semireg, "element_census", fail)
    monkeypatch.setattr(drg.semireg, "max_semiregular_order", fail)
    assert cli_main(["verify-cert", str(PSP43_40_BOUND)]) == 0
    assert capsys.readouterr().out == "VALID\n"


# -- the benchmark's tracer -----------------------------------------------------------


def test_bench_tracer_wraps_every_import_site():
    # a rename or an import by another name would silently zero per-layer metrics
    import drg.cli  # noqa: F401
    import drg.oracles  # noqa: F401

    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
        assert tracer.unwrapped_sites() == []
    finally:
        tracer.uninstall()
