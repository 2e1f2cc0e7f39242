import importlib.util
import json
import os
from pathlib import Path

import pytest

from drg.catalog import (
    IntegrityError,
    catalog_index,
    catalog_load,
    catalog_names,
    data_dir,
    load_group_file,
)
from drg.group import blocks_and_primitivity
from drg.semireg import is_semiregular_subgroup


def test_catalog_names_nonempty():
    names = catalog_names()
    assert len(names) >= 30
    for required in ("M11:11", "M11:12", "M12:12", "PSL2(11):11", "PSL2(11):12",
                     "PSU3(3):36", "PSp4(3):36", "PSp4(3):40", "A5:6", "A5:10",
                     "A6:6", "A9:36"):
        assert required in names


def test_all_catalog_entries_validate():
    for rec in catalog_index():
        gf = catalog_load(rec["name"])
        assert gf.group.degree == rec["degree"]
        assert gf.group.order() == rec["order"]


def test_m11_metadata():
    gf = catalog_load("M11:11")
    G = gf.group
    assert G.order() == 7920
    assert G.degree == 11
    assert G.stabilizer_order() == 720
    assert blocks_and_primitivity(G)[1]
    subs = gf.subgroups
    from drg.group import close_subgroup

    for name, expected in (("PSL2(11)", 660), ("11:5", 55), ("6:2", 12),
                           ("A5a", 60), ("A5b", 60), ("M9:2", 144)):
        elems = close_subgroup(subs[name], 11, 10_000)
        assert len(elems) == expected, name


def test_m11_deg12_metadata():
    G = catalog_load("M11:12").group
    assert G.order() == 7920 and G.degree == 12
    assert G.stabilizer_order() == 660


def test_psu33_metadata():
    G = catalog_load("PSU3(3):36").group
    assert G.order() == 6048 and G.degree == 36
    assert G.stabilizer_order() == 168
    assert blocks_and_primitivity(G)[1]


def test_psp43_semiregular9_subgroup():
    gf = catalog_load("PSp4(3):36")
    assert gf.group.order() == 25920
    gens = gf.subgroups["semiregular9"]
    assert is_semiregular_subgroup(gens, 36)


def test_unknown_name():
    with pytest.raises(IntegrityError):
        catalog_load("M13:13")


def test_load_group_file_cycle_strings(tmp_path):
    record = {
        "name": "S3 cycles",
        "degree": 3,
        "one_based": True,
        "generators": ["(1,2)", "(1,2,3)"],
        "subgroups": [{"name": "C3", "generators": ["(1,2,3)"]}],
        "notes": "",
    }
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(record))
    gf = load_group_file(path)
    assert gf.group.order() == 6
    assert len(gf.subgroups["C3"]) == 1


def test_load_group_file_rejects_non_bijection(tmp_path):
    record = {"name": "bad", "degree": 3, "generators": [[0, 0, 1]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(record))
    with pytest.raises(IntegrityError):
        load_group_file(path)


def test_load_group_file_rejects_subgroup_outside(tmp_path):
    record = {
        "name": "bad sub",
        "degree": 4,
        "generators": [[1, 2, 0, 3]],  # a 3-cycle
        "subgroups": [{"name": "X", "generators": [[1, 0, 2, 3]]}],  # odd, outside
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(record))
    with pytest.raises(IntegrityError):
        load_group_file(path)


def test_data_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("DRG_DATA_DIR", str(tmp_path))
    assert data_dir() == tmp_path
    monkeypatch.delenv("DRG_DATA_DIR")
    assert data_dir().name == "data"


def test_corrupted_catalog_file_detected(tmp_path, monkeypatch):
    # copy the index and one file, then corrupt the generators
    src = data_dir()
    (tmp_path / "index.json").write_text((src / "index.json").read_text())
    for rec in catalog_index():
        content = json.loads((src / rec["file"]).read_text())
        if rec["name"] == "C5:5":
            content["generators"] = [[0, 1, 2, 3, 4]]  # identity: wrong order
        (tmp_path / rec["file"]).write_text(json.dumps(content))
    monkeypatch.setenv("DRG_DATA_DIR", str(tmp_path))
    from drg.catalog import _load_checked

    _load_checked.cache_clear()
    with pytest.raises(IntegrityError):
        catalog_load("C5:5")
    _load_checked.cache_clear()


def test_catalog_build_matches_the_shipped_files(capsys):
    # the drift check, in process: every group is rebuilt from first
    # principles and compared byte for byte with src/drg/data, writing nothing
    path = Path(__file__).resolve().parents[1] / "tools" / "build_catalog.py"
    spec = importlib.util.spec_from_file_location("build_catalog", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    before = {p.name: p.read_bytes() for p in tool.DATA_DIR.iterdir()}
    assert tool.main(["--check"]) == 0  # build(), then drift()
    out = capsys.readouterr().out
    assert not [line for line in out.splitlines()
                if line.startswith(("missing:", "extra:", "changed:"))], out
    assert {p.name: p.read_bytes() for p in tool.DATA_DIR.iterdir()} == before
