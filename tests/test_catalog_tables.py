"""Every catalog table, pinned.

tests/catalog_tables.json records each catalog base at max_degree 12:
its groups, generator names, label, simple connectivity, dimension,
display name, and the matrix of cup with each H^2 generator from every
degree (its maps out of degrees 11 and 12 are the empty maps into the zero
group that tables gave before they refused degrees above the top).  The test
rebuilds each base at every max_degree 0..12 and checks it against the
matching truncation of that record: a table built at max_degree d holds
no H^2 below d = 2 and no cup map that leaves degree d.

To re-record after a deliberate change to the catalog:

    PYTHONPATH=src python -m tests.test_catalog_tables
"""

import json
from pathlib import Path

import pytest

from tdual.spaces import cohomology_of, parse_space

from .test_naming import CATALOG

RECORD = Path(__file__).resolve().parent / "catalog_tables.json"
TOP = 12


def catalog_table(name: str, max_degree: int) -> dict:
    space = parse_space(name)
    gc = cohomology_of(space, max_degree)
    gens = gc.groups[2].generators() if max_degree >= 2 else []
    return {
        "label": gc.label,
        "simply_connected": gc.simply_connected,
        "dimension": space.dimension(),
        "display": space.display(),
        "groups": [[g.free_rank, list(g.torsion)] for g in gc.groups],
        "names": [list(ns) for ns in gc.names],
        "cups": [[[list(r) for r in gc.cup_by(x, k).matrix.entries]
                  for k in range(max_degree - 1)] for x in gens],
    }


def truncated(record: dict, d: int) -> dict:
    """The record as a table built at max_degree d would read: only the
    cup maps that stay within degree d."""
    return dict(
        record,
        groups=record["groups"][:d + 1],
        names=record["names"][:d + 1],
        cups=[] if d < 2 else [row[:d - 1] for row in record["cups"]])


@pytest.fixture(scope="module")
def recorded():
    return json.loads(RECORD.read_text())


def test_record_covers_the_catalog(recorded):
    assert sorted(recorded) == sorted(CATALOG) and len(CATALOG) == 26


@pytest.mark.parametrize("name", CATALOG)
def test_catalog_table_matches_record(recorded, name):
    for d in range(TOP + 1):
        assert catalog_table(name, d) == truncated(recorded[name], d), d


if __name__ == "__main__":
    RECORD.write_text("{\n" + ",\n".join(
        f"{json.dumps(name)}: {json.dumps(catalog_table(name, TOP))}"
        for name in sorted(CATALOG)) + "\n}\n")
