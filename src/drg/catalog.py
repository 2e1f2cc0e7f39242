"""Loading and validating the shipped group catalog.

Group files are JSON with image-array or cycle-string generators; every
load re-verifies the recorded metadata (order, degree, transitivity,
primitivity), so corrupted data cannot slip into a computation.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from .group import PermGroup, blocks_and_primitivity
from .perm import Permutation, PermError, parse_cycles

ENV_DATA_DIR = "DRG_DATA_DIR"


class IntegrityError(ValueError):
    """A catalog file failed validation against its recorded metadata."""


def data_dir() -> Path:
    override = os.environ.get(ENV_DATA_DIR)
    if override:
        return Path(override)
    return Path(__file__).resolve().parent / "data"


def _is_generator(raw) -> bool:
    return isinstance(raw, str) or (isinstance(raw, list) and all(type(x) is int for x in raw))


def _shape_problem(record) -> str | None:
    """What keeps a parsed record from having a group file's shape, or None."""
    if not isinstance(record, dict):
        return "not a JSON object"
    for key in ("name", "degree", "generators"):
        if key not in record:
            return f"missing field {key!r}"
    degree = record["degree"]
    if type(degree) is not int or degree < 1:
        return f"degree must be a positive integer, got {degree!r}"
    one_based = record.get("one_based", False)
    if type(one_based) is not bool:
        return f"one_based must be true or false, got {one_based!r}"
    subgroups = record.get("subgroups", [])
    if not isinstance(subgroups, list) or not all(
            isinstance(sub, dict) and isinstance(sub.get("name"), str) and "generators" in sub
            for sub in subgroups):
        return "subgroups must be a list of objects with a name and generators"
    for gens in [record["generators"], *(sub["generators"] for sub in subgroups)]:
        if not isinstance(gens, list) or not all(map(_is_generator, gens)):
            return "generators must be a list of cycle strings or integer image lists"
    return None


def _parse_generator(raw, degree: int, one_based: bool) -> Permutation:
    if isinstance(raw, str):
        return parse_cycles(raw, degree, one_based=one_based)
    images = [x - 1 for x in raw] if one_based else list(raw)
    return Permutation(images)


@dataclass
class GroupFile:
    name: str
    group: PermGroup
    subgroups: dict[str, list[Permutation]]
    notes: str

    @property
    def degree(self) -> int:
        return self.group.degree


def load_group_file(path: Path | str) -> GroupFile:
    """Parse and validate one group spec file (no metadata cross-check).

    A file that cannot be read, is not UTF-8 JSON or lacks a group file's
    shape raises IntegrityError, as does a generator that is no permutation
    of the degree's points.
    """
    path = Path(path)
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8 or bad JSON
        raise IntegrityError(f"{path}: unreadable or invalid JSON ({exc})") from exc
    problem = _shape_problem(record)
    if problem:
        raise IntegrityError(f"{path}: {problem}")
    degree = record["degree"]
    one_based = record.get("one_based", False)
    try:
        gens = [_parse_generator(g, degree, one_based) for g in record["generators"]]
        if not gens:
            raise PermError("no generators")
        group = PermGroup(gens, degree, name=record["name"])
        subgroups = {}
        for sub in record.get("subgroups", []):
            subgroups[sub["name"]] = [
                _parse_generator(g, degree, one_based) for g in sub["generators"]
            ]
    except PermError as exc:
        raise IntegrityError(f"{path}: {exc}") from exc
    for sub_name, sub_gens in subgroups.items():
        for g in sub_gens:
            if g.degree != degree or not group.membership(g):
                raise IntegrityError(
                    f"{path}: subgroup {sub_name!r} generator outside the group"
                )
    return GroupFile(record["name"], group, subgroups, record.get("notes", ""))


@lru_cache(maxsize=1)
def _index_cached(path_str: str) -> tuple[dict, ...]:
    path = Path(path_str)
    if not path.exists():
        raise IntegrityError(f"catalog index not found at {path}")
    return tuple(json.loads(path.read_text()))


def catalog_index() -> list[dict]:
    return list(_index_cached(str(data_dir() / "index.json")))


def catalog_names() -> list[str]:
    return sorted(rec["name"] for rec in catalog_index())


@lru_cache(maxsize=None)
def _load_checked(name: str, dir_str: str) -> GroupFile:
    records = {rec["name"]: rec for rec in catalog_index()}
    if name not in records:
        raise IntegrityError(f"unknown catalog name {name!r}; see catalog_names()")
    rec = records[name]
    gf = load_group_file(Path(dir_str) / rec["file"])
    if gf.group.degree != rec["degree"]:
        raise IntegrityError(f"{name}: degree {gf.group.degree} != recorded {rec['degree']}")
    if gf.group.order() != rec["order"]:
        raise IntegrityError(f"{name}: order {gf.group.order()} != recorded {rec['order']}")
    if gf.group.is_transitive() != rec["transitive"]:
        raise IntegrityError(f"{name}: transitivity mismatch")
    if rec["transitive"]:
        _, primitive = blocks_and_primitivity(gf.group)
        if primitive != rec["primitive"]:
            raise IntegrityError(f"{name}: primitivity mismatch")
        if gf.group.stabilizer_order() != rec["stabilizer_order"]:
            raise IntegrityError(f"{name}: stabilizer order mismatch")
    return gf


def catalog_load(name: str) -> GroupFile:
    """Load a catalog group by name, verifying its recorded metadata."""
    return _load_checked(name, str(data_dir()))


def resolve_group(source: str | Path) -> GroupFile:
    """The group file at ``source`` if one exists, else the catalog group of that name."""
    path = Path(source)
    return load_group_file(path) if path.exists() else catalog_load(str(source))
