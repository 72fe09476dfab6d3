"""Every generator name of a sweep of total spaces, pinned.

tests/name_tables.json records, for each table of the sweep below, each
degree's group and generator names and the degrees whose extension is
ambiguous.  The sweep reaches names the benchmark corpus never shows,
synthetic ones included:

  * every catalog base with Euler class 0 and c*g for the H^2
    generator g and c in {+-1, +-2, +-3, 4, 6}, to total degree 8;
  * each base's product with a circle, to degree 8;
  * R2 and R32 as computed from their deck actions;
  * the canonical bundle E32 and its dual E32^, with the engine's names.

To re-record after a deliberate change to generator naming:

    PYTHONPATH=src python -m tests.test_name_tables
"""

import json
from pathlib import Path

import pytest

from tdual import classifying
from tdual.gysin import CircleBundle, total_space_cohomology
from tdual.spaces import cohomology_of, parse_space

from .oracles import kunneth_with_circle
from .test_naming import CATALOG

RECORD = Path(__file__).resolve().parent / "name_tables.json"
TOP = 8
MULTIPLES = (1, -1, 2, -2, 3, -3, 4, 6)


def _entry(groups, names, ambiguous) -> dict:
    return {"groups": [[g.free_rank, list(g.torsion)] for g in groups],
            "names": [list(ns) for ns in names],
            "ambiguous": list(ambiguous)}


def _bundle_entry(tsc) -> dict:
    return _entry([tsc.group(k) for k in range(tsc.top + 1)],
                  [tsc.names(k) for k in range(tsc.top + 1)],
                  tsc.ambiguous_degrees())


def name_tables() -> dict:
    """Table key -> its groups, names and ambiguous degrees."""
    out = {}
    for name in CATALOG:
        base = cohomology_of(parse_space(name), TOP + 1)
        eulers = {"0": base.group(2).zero_element()}
        for g, gname in zip(base.group(2).generators(), base.names[2]):
            eulers.update((f"{c}*{gname}", g.scale(c)) for c in MULTIPLES)
        for label, e in eulers.items():
            tsc = total_space_cohomology(CircleBundle(base, e), TOP)
            out[f"{name} euler {label}"] = _bundle_entry(tsc)
        prod = kunneth_with_circle(cohomology_of(parse_space(name), TOP))
        out[f"{name} x S1"] = _entry(prod.groups, prod.names, ())
    for key, mt in (("R2", classifying.r2_cohomology_computed()),
                    ("R32", classifying.r32_cohomology_computed())):
        out[f"{key} computed"] = _entry(mt.table.groups, mt.table.names,
                                        mt.ambiguous)
    ub = classifying.universal_bundle_tables()
    out["E32"] = _bundle_entry(ub.e32.tsc)
    out["E32^"] = _bundle_entry(ub.e32_hat.tsc)
    return out


@pytest.fixture(scope="module")
def tables():
    return name_tables()


@pytest.fixture(scope="module")
def recorded():
    return json.loads(RECORD.read_text())


def test_record_covers_the_sweep(tables, recorded):
    assert sorted(tables) == sorted(recorded) and len(recorded) == 200


def test_names_match_record(tables, recorded):
    for key, entry in tables.items():
        assert entry == recorded[key], key


def test_record_holds_synthetic_names(recorded):
    # the fiber classes z[k.j] that inherit no name; the direct sum's u<i>
    # never shows here (tests/test_naming.py draws those)
    names = {n for entry in recorded.values()
             for ns in entry["names"] for n in ns}
    assert any(n.startswith("z[") for n in names)


if __name__ == "__main__":
    RECORD.write_text("{\n" + ",\n".join(
        f"{json.dumps(key)}: {json.dumps(entry)}"
        for key, entry in sorted(name_tables().items())) + "\n}\n")
