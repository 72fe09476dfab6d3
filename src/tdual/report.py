"""Report documents: canonical JSON and text renderings of engine output.

Groups serialize as {"rank": r, "torsion": [d1, ...]} plus a display
string like "Z^2 + Z/4"; maps serialize as row-major integer matrices.
Each distinct group, matrix and total-space table is one shared node (a
memo keyed by value), written once per indent, so reports are read-only.
JSON output is schema-versioned, key-sorted and newline-terminated, so
identical jobs yield byte-identical documents and parse/re-emit round
trips are stable.  emit_json gives json.dumps' bytes: it joins each int
list at once and formats each Rows (the int rows that matrix_json and the
coset blocks build) with one % call; no other list is taken for rows.
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii

from .abelian import FgGroup, Hom, IntMatrix, memo

SCHEMA_VERSION = 1
_LITERALS = {True: "true", False: "false", None: "null"}  # json.dumps of each


class Table(dict):
    """A dict that keeps its JSON text per indent once _json writes it.
    Reports share the Table of each total-space table, group and matrix, so
    a report is read-only; copy, deepcopy and pickle give a plain dict."""
    __slots__ = ("texts",)

    def __init__(self, doc):
        super().__init__(doc)
        self.texts = {}

    def __reduce__(self):
        return dict, (dict(self),)


class Rows(list):
    """Equal-length rows of exact ints for _json; copies are plain lists."""
    __slots__ = ()

    def __reduce__(self):
        return list, (list(self),)


@memo
def group_json(g: FgGroup) -> Table:
    return Table({"rank": g.free_rank, "torsion": list(g.torsion),
                  "display": g.describe()})


@memo
def matrix_json(m: IntMatrix) -> Table:
    return Table({"rows": m.rows, "cols": m.cols,
                  "entries": Rows(map(list, m.entries))})


def hom_json(h: Hom) -> dict:
    return {"domain": group_json(h.domain), "codomain": group_json(h.codomain),
            "matrix": matrix_json(h.matrix)}


def graded_json(groups, names) -> dict:
    return {str(k): {"group": group_json(g), "generators": list(ns)}
            for k, (g, ns) in enumerate(zip(groups, names))}


def total_space_json(tsc) -> Table:
    """tsc's table: one shared Table for each equal table (see Table)."""
    return _table_json(tuple(d.group for d in tsc.degrees),
                       tuple(d.names for d in tsc.degrees),
                       tuple(tsc.ambiguous_degrees()))


@memo
def _table_json(groups, names, ambiguous) -> Table:
    table = Table(graded_json(groups, names))
    for k in ambiguous:
        table[str(k)]["ambiguous_extension"] = True
    return table


def emit_json(doc: dict) -> str:
    """The bytes of json.dumps(doc, sort_keys=True, indent=2) plus a
    newline, writing int lists and Rows at once; str keys only."""
    return _json(doc, "\n") + "\n"


def _json(value, nl: str) -> str:
    """value as json.dumps writes it, nested at the indent that ends nl."""
    if (kind := type(value)) is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return str(value)
    if kind is bool or value is None:   # 1 == True: look up bools only
        return _LITERALS[value]
    if kind is Table:   # written once per indent, then reused
        if (text := value.texts.get(nl)) is None:
            text = value.texts[nl] = _json(dict(value), nl)
        return text
    if not isinstance(value, (dict, list, tuple)):
        return json.dumps(value)            # floats, int subclasses, ...
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    inner = nl + "  "
    if isinstance(value, dict):
        items = [f"{encode_basestring_ascii(k)}: {_json(value[k], inner)}"
                 for k in sorted(value)]   # f-strings: one new string per item
        return f"{{{inner}{(',' + inner).join(items)}{nl}}}"
    if kind is Rows and value[0]:   # rows of width 0: general path
        inner2 = inner + "  "
        row = ("[" + inner2 + ("," + inner2).join(["%d"] * len(value[0]))
               + inner + "]")   # one % call writes every row
        flat = tuple(chain.from_iterable(value))
        return f"[{inner}{(',' + inner).join([row] * len(value)) % flat}{nl}]"
    if set(map(type, value)) == {int}:   # not bool: prints true
        return f"[{inner}{(',' + inner).join(map(str, value))}{nl}]"
    items = [_json(x, inner) for x in value]
    return f"[{inner}{(',' + inner).join(items)}{nl}]"


def _inline(value) -> bool:
    if isinstance(value, dict):
        return not value
    return not isinstance(value, (list, tuple)) or all(
        not isinstance(x, (dict, list, tuple)) for x in value)


def _text_lines(doc, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(doc, dict):
        for key in sorted(doc):
            value = doc[key]
            if _inline(value):
                lines.append(f"{pad}{key}: {json.dumps(value)}")
            else:
                lines.append(f"{pad}{key}:")
                lines.extend(_text_lines(value, indent + 1))
    elif isinstance(doc, (list, tuple)):
        for value in doc:
            if _inline(value):
                lines.append(f"{pad}- {json.dumps(value)}")
            else:  # a block item: "- " takes the place of its first pad
                item = _text_lines(value, indent + 1)
                lines.append(f"{pad}- {item[0][len(pad) + 2:]}")
                lines.extend(item[1:])
    return lines


def emit_text(doc: dict) -> str:
    return "\n".join(_text_lines(doc)) + "\n"


def emit(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return emit_json(doc)
    if fmt == "text":
        return emit_text(doc)
    raise ValueError(f"unknown format {fmt!r}")
