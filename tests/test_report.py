"""The report JSON writer must give exactly json.dumps' bytes.

emit_json writes strings, ints, bools, None, empty containers, int lists
and report.Rows itself instead of calling the indenting encoder, so its
output is compared with json.dumps(doc, sort_keys=True, indent=2) + "\\n"
over drawn report-shaped values and over the reports of every catalog
base.  Only a Rows is written as integer rows: the report builders make
one of every list of int rows, and any other list of lists takes the
general path.  Only str keys are written: any other key raises the
TypeError of json's string encoder.  A solved total space keeps its table
and the table's text per indent, so later reports of the bundle share
both, and each distinct group and matrix is one shared node in the same
way; they must still be written as json.dumps would, at every depth.
"""

import argparse
import copy
import enum
import io
import json
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tdual import cli
from tdual.abelian import FgGroup, IntMatrix, clear_memos
from tdual.cli import run_job
from tdual.gysin import CircleBundle, TotalSpaceCohomology
from tdual.report import (
    SCHEMA_VERSION,
    Rows,
    Table,
    emit_json,
    emit_text,
    group_json,
    matrix_json,
    total_space_json,
)

BASES = (["point"] + [f"S{n}" for n in range(1, 9)] + ["T2"]
         + [f"Sigma{g}" for g in range(2, 9)] + [f"RP{n}" for n in range(2, 9)]
         + ["CP2", "KZ2"])
TABLES = ["R2", "R32", "E32", "homotopy"]


class Level(enum.IntEnum):
    LOW = 1


def reference(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def str_keys_only(doc) -> bool:
    if isinstance(doc, dict):
        return all(type(k) is str for k in doc) and all(map(str_keys_only,
                                                             doc.values()))
    return not isinstance(doc, (list, tuple)) or all(map(str_keys_only, doc))


texts = st.one_of(
    st.text(),
    st.text(alphabet='"\\/\x00\x07\x1f\x7f\n\t abé ☃\U0001f600'))
ints = st.one_of(st.integers(-10, 10), st.integers(),
                 st.integers(-(2 ** 80), 2 ** 80))
# int lists, with bools mixed in (they must stay true/false, not 1/0)
int_lists = st.lists(st.one_of(ints, st.booleans()))
scalars = st.one_of(st.none(), st.booleans(), ints, texts)
# plain lists of equal-length int rows, and row lists that no Rows could
# hold: ragged, with an empty, bool or tuple row; all take the general path
int_rows = st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(ints, min_size=n, max_size=n), min_size=1, max_size=5))
other_rows = st.lists(st.one_of(
    st.lists(st.one_of(ints, st.booleans()), max_size=3),
    st.tuples(ints, ints)), min_size=1, max_size=5)
report_values = st.recursive(
    st.one_of(scalars, int_lists, int_rows, other_rows),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(texts, inner, max_size=4)),
    max_leaves=20)

# 512 width-1 tuples and 300 width-3 lists, in plain lists, whose last row
# no Rows could hold: a bool, float or int-subclass entry, a ragged row, a
# list among tuples (a tuple among lists), an empty row
TUPLE_ROWS = [(k,) for k in range(511)]
LIST_ROWS = [[k, -k, 2 ** 70] for k in range(299)]
BAD_LAST = ([TUPLE_ROWS + [bad] for bad in
             ((True,), (1.5,), (Level.LOW,), (1, 2), [7], ())]
            + [LIST_ROWS + [bad] for bad in
               ([1, 2, True], [1, 2, 0.5], [1, 2, Level.LOW], [1, 2],
                (1, 2, 3), [])])


def _deep(rows):
    """rows 3 levels deep, next to keys and strings holding % fields."""
    return {"%d": [{"%s": rows, "v": "%d %s %% %(x)s"}], "x%s": "%d"}


DEEP = [_deep(rows) for rows in [TUPLE_ROWS + [(-1,)], LIST_ROWS] + BAD_LAST]


def examples(*docs):
    """An @example for each of docs."""
    def wrap(test):
        for doc in docs:
            test = example(doc)(test)
        return test
    return wrap


@settings(max_examples=150, deadline=None)
@given(report_values)
@example({"a": [1, True, 0], "b": [], "c": {}, "d": [[], {}, [2 ** 70, -1]]})
@example({"k\"\\\x01é": "v\"\\\n☃", "": None, "flags": [False]})
@example([[2 ** 80, -(2 ** 80), 0], [1, -1, 2 ** 79]])
# plain lists of rows, which take the general path whatever they hold
@example([[1, 2], [3]])                 # ragged
@example([[1], [2, 3]])
@example([[], []])                      # empty rows
@example([[1, True], [2, 3]])           # a bool entry
@example([[True, 1]])
@example([[1.0, 2]])                    # a float entry
@example([[1, 2], (3, 4)])              # a tuple row
@example([[1], (2,)])
@example([(1, 2), (3, -4), (2 ** 70, 0)])  # all tuple rows
@example([(2 ** 80, -3)])
@example([[1, 2], {"a": [[3, 4]]}])     # rows mixed with a dict
@example({"a": True, "b": 1, "c": 0, "d": False})  # 1 == True, 0 == False
@example([1, True, None, 0, False])
@example({"t": (), "d": {}, "l": [], "x": [(), {}, []]})
@example(())
@example({})
@example([])
@example({"f": 1.5, "e": Level.LOW, "l": [Level.LOW, 2.5, -0.0]})  # json.dumps
@example(3)
@example("x")
@example(None)
@example({"a": {1: "one"}})             # not a str key
@examples(*BAD_LAST, *DEEP)
def test_emit_json_equals_json_dumps(doc):
    if str_keys_only(doc):
        assert emit_json(doc) == reference(doc)
    else:
        with pytest.raises(TypeError, match="^first argument must be a string, not int$"):
            emit_json(doc)


def _sweep_jobs():
    """Every catalog base, bundles with Euler class 0 and a nonzero one,
    through cohomology, dualize and coset-partition jobs."""
    for base in BASES:
        n2 = len(run_job({"mode": "cohomology", "base": base,
                          "euler": "0"})["base"]["2"]["generators"])
        for euler in ("0", [3] * n2):
            table = run_job({"mode": "cohomology", "base": base,
                             "euler": euler})
            yield table
            h2 = table["total_space"]["2"]["generators"]
            n3 = len(table["total_space"]["3"]["generators"])
            b = [1 if n.startswith("p*") else 0 for n in h2]
            for flux in ([0] * n3, [2] * n3):
                yield run_job({"mode": "dualize", "base": base,
                               "euler": euler, "flux": flux, "b": b})
            yield run_job({"mode": "coset-partition", "base": base,
                           "euler": euler, "gen": [4] * len(h2)})
    for space in TABLES:
        yield run_job({"mode": "classifying-tables", "space": space})


def test_every_catalog_report_is_emitted_as_json_dumps_would():
    docs = list(_sweep_jobs())
    assert any(d["mode"] == "coset-partition"
               and "coset_representatives" in d["partition"] for d in docs)
    for doc in docs:
        assert emit_json(doc) == reference(doc), doc["input"]
    batch = {"schema_version": 1, "reports": docs}
    assert emit_json(batch) == reference(batch)


def test_text_of_tuple_rows_equals_list_rows():
    doc = run_job({"mode": "coset-partition", "base": "S2", "euler": "6",
                   "gen": "0"})
    rows = doc["partition"]["coset_representatives"]
    assert len(rows) == 6 and {type(r) for r in rows} == {tuple}
    partition = dict(doc["partition"], coset_representatives=[
        list(r) for r in rows])
    listed = dict(doc, partition=partition)
    assert emit_text(doc) == emit_text(listed)
    assert emit_json(doc) == emit_json(listed)


# (base, euler, flux) of bundles solved before their reports are built.
# Over S2 with e = vol the dual bundle is the source bundle, so one dualize
# report carries the same table twice; RP3 with e = a flags degree 3.
SOLVED = [("S2", "vol", "vol.z"), ("T2", "0", "2*vol.z"), ("RP3", "a", "0")]


def written_as_json_dumps_would(doc):
    text = emit_json(doc)
    assert text == reference(doc)
    assert emit_text(doc) == emit_text(json.loads(text))


@pytest.mark.parametrize("base, euler, flux", SOLVED)
def test_reports_of_a_solved_bundle_share_its_table_at_every_depth(
        base, euler, flux):
    clear_memos()
    bundle = {"base": base, "euler": euler}
    first = run_job({"mode": "cohomology", **bundle})
    written_as_json_dumps_would(first)          # the table's text at depth 1
    docs = [run_job({"mode": "cohomology", **bundle}),
            run_job({"mode": "dualize", **bundle, "flux": flux}),
            run_job({"mode": "cohomology", **bundle})]
    table = first["total_space"]
    assert type(table) is Table
    assert docs[0]["total_space"] is table and docs[2]["total_space"] is table
    assert docs[1]["source"]["table"] is table
    for doc in docs:        # total_space at depth 1, source/dual.table at 2
        written_as_json_dumps_would(doc)
    # `tdual run` nests each report one level deeper: tables at depths 3, 4
    batch = {"schema_version": SCHEMA_VERSION, "reports": docs}
    for fmt, want in (("json", reference(batch)),
                      ("text", emit_text(json.loads(reference(batch))))):
        out = io.StringIO()
        cli._finish(docs, argparse.Namespace(format=fmt), out)
        assert out.getvalue() == want


def test_equal_tables_share_one_node_whatever_space_they_come_from():
    """A table is keyed by its value, not by the solved space: a space
    built outside the memo gets the memo's space's table."""
    clear_memos()
    spec = {"mode": "cohomology", "base": "RP3", "euler": "a"}
    table = run_job(dict(spec))["total_space"]
    tsc = cli._build_total(spec)
    twin = TotalSpaceCohomology(CircleBundle(tsc.base, tsc.euler), tsc.top)
    assert twin is not tsc and total_space_json(twin) is table
    assert table["3"]["ambiguous_extension"] is True


def _nodes(doc, kind):
    """Every node of type kind in doc, at any depth."""
    if type(doc) is kind:
        yield doc
    if isinstance(doc, (dict, list, tuple)):
        for value in doc.values() if isinstance(doc, dict) else doc:
            yield from _nodes(value, kind)


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_two_reports_share_a_group_node_written_at_two_depths(order):
    """H^2 of L(4) is the h2 node of a coset-partition report (depth 1)
    and the group of degree 2 of a cohomology report (depth 3)."""
    clear_memos()
    bundle = {"base": "S2", "euler": "4"}
    docs = [run_job({"mode": "cohomology", **bundle}),
            run_job({"mode": "coset-partition", **bundle, "gen": "0"})]
    node = docs[1]["h2"]
    assert type(node) is Table and docs[0]["total_space"]["2"]["group"] is node
    assert node["display"] == "Z/4"
    for i in order:
        assert emit_json(docs[i]) == reference(docs[i])
    assert {"\n  ", "\n      "} <= set(node.texts)   # depths 1 and 3


def test_a_copied_report_is_plain_and_free_to_change():
    clear_memos()
    doc = run_job({"mode": "dualize", "base": "S2", "euler": "vol",
                   "flux": "vol.z"})
    emit_json(doc)                              # the shared texts are written
    shared = list(_nodes(doc, Table))
    assert {("display", "rank", "torsion"), ("cols", "entries", "rows")} <= {
        tuple(sorted(t)) for t in shared}       # group and matrix nodes
    for table in shared:
        assert type(copy.copy(table)) is dict and copy.copy(table) == table
    assert list(_nodes(doc, Rows))              # matrix entries, coset lifts
    for copied in (copy.deepcopy(doc), pickle.loads(pickle.dumps(doc))):
        assert copied == doc and not list(_nodes(copied, Table))
        assert not list(_nodes(copied, Rows))
    changed = copy.deepcopy(doc)
    changed["source"]["table"]["0"]["generators"] = ["one"]
    changed["flux_ambiguity"]["subgroup"]["display"] = "changed"
    assert emit_json(changed) == reference(changed) != emit_json(doc)
    assert emit_json(doc) == reference(doc)


@st.composite
def report_groups(draw):
    """Groups with torsion factors up to and past 64 bits."""
    chain = [draw(st.integers(2, 2 ** 70))] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(0, 2)) if chain else 0):
        chain.append(chain[-1] * draw(st.integers(1, 2 ** 70)))
    return FgGroup(draw(st.integers(0, 3)), tuple(chain))


@st.composite
def report_matrices(draw):
    """Matrices of every shape up to 3 x 3, 0 x n and n x 0 among them."""
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    return IntMatrix(rows, cols, tuple(tuple(draw(ints) for _ in range(cols))
                                       for _ in range(rows)))


def _nested(node, depth: int):
    """node at depth `depth` of a document, under dicts and lists in turn."""
    for d in range(depth):
        node = {"k": node} if d % 2 else [node]
    return node


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(report_groups(), report_matrices()),
                min_size=1, max_size=3),
       st.permutations(range(1, 6)))
@example([IntMatrix(0, 3, ()), IntMatrix(2, 0, ((), ())),
          FgGroup(0, (2 ** 65, 2 ** 66))], [1, 2, 3, 4, 5])
def test_shared_nodes_are_written_as_json_dumps_would_at_every_depth(
        values, depths):
    """Each group and matrix node, new to the memo, written at depths 1-5
    in a drawn order, as it stands and inside one document that holds it
    at every depth."""
    clear_memos()
    nodes = [group_json(v) if type(v) is FgGroup else matrix_json(v)
             for v in values]
    for depth in depths:
        for node in nodes:
            doc = _nested(node, depth)
            assert emit_json(doc) == reference(doc)
    doc = [_nested(node, depth) for depth in depths for node in nodes]
    assert emit_json(doc) == reference(doc)


def test_a_copied_rows_is_a_plain_list():
    rows = Rows([[1, 2], [3, 4]])
    for copied in (copy.copy(rows), copy.deepcopy(rows),
                   pickle.loads(pickle.dumps(rows))):
        assert type(copied) is list and copied == rows


@st.composite
def int_row_nodes(draw):
    """A Rows of 0-600 rows of one width 0-4, each row a list or a tuple,
    with entries past 64 bits."""
    width = draw(st.integers(0, 4))
    row = st.lists(st.integers(-(2 ** 80), 2 ** 80),
                   min_size=width, max_size=width)
    return Rows(draw(st.lists(st.one_of(row, row.map(tuple)), max_size=600)))


@settings(max_examples=60, deadline=None)
@given(int_row_nodes(), st.integers(1, 5))
@example(Rows([(k, -k) for k in range(600)]), 5)
@example(Rows([[2 ** 80, -(2 ** 80), 0, 1], (1, 2, 3, 4)]), 2)
@example(Rows([[], ()]), 1)                     # width 0: general path
@example(Rows(), 3)
def test_rows_are_written_as_json_dumps_would_at_every_depth(rows, depth):
    doc = _nested(rows, depth)
    assert emit_json(doc) == reference(doc)


def _row_lists(doc):
    """Every list or tuple in doc, at any depth, that holds rows."""
    if isinstance(doc, dict):
        for value in doc.values():
            yield from _row_lists(value)
    elif isinstance(doc, (list, tuple)):
        if doc and all(isinstance(x, (list, tuple)) for x in doc):
            yield doc
        for value in doc:
            yield from _row_lists(value)


def test_every_list_of_int_rows_in_a_report_is_a_rows():
    """The writer formats only a Rows as int rows, so a report field of
    int rows that the builders leave a plain list would only be slower:
    this finds it.  Each Rows must hold exact ints for its %d fields."""
    docs = [*_sweep_jobs(),
            run_job({"mode": "coset-partition", "base": "S2", "euler": "0",
                     "gen": "512"}),
            run_job({"mode": "dualize", "base": "CP2", "euler": "0",
                     "flux": "300*a.z"})]
    assert [len(docs[-1]["cosets"][side]["coset_representatives"])
            for side in ("source", "target")] == [300, 300]
    assert len(docs[-2]["partition"]["coset_representatives"]) == 512
    for doc in docs:
        for rows in _row_lists(doc):
            width = len(rows[0])
            if type(rows) is Rows:
                assert all(type(x) is int for row in rows for x in row)
            elif width and all(len(row) == width
                               and all(type(x) is int for x in row)
                               for row in rows):
                pytest.fail(f"int rows outside a Rows in {doc['input']}")
