"""The value types of tdual are tuples of their fields.

IntMatrix, FgGroup, GroupElement and Hom, and every value type above
them (catalog spaces, base tables, bundles, Gysin degrees, cosets, deck
actions, mapping tori, triples, reports and bundle tables), compare and
hash as the tuple of their fields, so equal values built by different
constructors are interchangeable memo keys.  They are immutable, survive
pickle and deepcopy, and refuse the tuple operators that mean nothing for
them.  Products with an identity are built by the unchecked constructors.
No value type is a dataclass: importing the command line loads neither
dataclasses nor the inspect module it brings.
"""

import copy
import os
import pickle
import subprocess
import sys

import pytest

import tdual
from tdual.abelian import FgGroup, GroupElement, Hom, IntMatrix, _from_columns
from tdual.classifying import (
    ZAction,
    r2_cohomology_computed,
    universal_bundle_tables,
)
from tdual.gysin import CircleBundle, total_space_cohomology
from tdual.spaces import cohomology_of, parse_space
from tdual.tduality import Triple, coset_partition, dualize

ROWS = ((1, 2, 3), (4, 5, 6))


def _matrices():
    return [IntMatrix(2, 3, ROWS), IntMatrix(2, 3, [list(r) for r in ROWS]),
            IntMatrix.identity(2) @ IntMatrix.from_rows(ROWS),
            IntMatrix.from_rows(ROWS),
            IntMatrix.from_columns([(1, 4), (2, 5), (3, 6)], 2),
            _from_columns([(1, 4), (2, 5), (3, 6)], 2)]


def _values():
    g = FgGroup(1, (2, 4))
    h = Hom(FgGroup(1), g, IntMatrix.from_rows([[3], [1], [2]]))
    s2 = cohomology_of(parse_space("S2"), 4)
    bundle = CircleBundle(s2, s2.named_element(2, "vol").scale(2))
    return [IntMatrix(2, 3, ROWS), g, FgGroup(0), g.element([5, 3, 6]),
            g._element([5, 3, 6]), h, Hom.identity(g).compose(h),
            parse_space("S2"), s2, bundle,
            total_space_cohomology(bundle, 3).degrees[3],
            coset_partition(g.element([1, 1, 2])),
            ZAction.from_matrix(FgGroup(2), IntMatrix.from_rows([[1, 1], [0, 1]])),
            r2_cohomology_computed()]


def _holders():
    """Values holding a solved total space, which compares by identity."""
    s2 = cohomology_of(parse_space("S2"), 4)
    tsc = total_space_cohomology(CircleBundle(s2, s2.named_element(2, "vol")), 3)
    triple = Triple(tsc, tsc.group(2).zero_element(), tsc.group(3).generator(0))
    universal = universal_bundle_tables()
    return [triple, dualize(triple), universal.e32, universal]


def test_equal_matrices_are_equal_and_hash_equal_from_every_constructor():
    first, *rest = _matrices()
    for m in rest:
        assert m == first and hash(m) == hash(first)
        assert type(m) is IntMatrix and m.entries == ROWS
    assert len(set(_matrices())) == 1
    assert IntMatrix.from_rows([[1, 2, 3], [4, 5, 7]]) != first
    assert IntMatrix.zeros(0, 3) != IntMatrix.zeros(3, 0)


def test_equal_groups_elements_and_homs_are_equal_and_hash_equal():
    g = FgGroup(1, [2, 4])
    assert g == FgGroup(1, (2, 4)) and hash(g) == hash(FgGroup(1, (2, 4)))
    x = g.element([5, 3, 6])
    assert x == g._element([5, 1, 2]) == GroupElement(g, (5, -1, -2))
    assert x.coords == (5, 1, 2) and hash(x) == hash(g._element([5, 1, 2]))
    m = IntMatrix.from_rows([[3], [3], [6]])
    h = Hom(FgGroup(1), g, m)
    assert h.matrix.entries == ((3,), (1,), (2,))
    composed = h.compose(Hom.identity(FgGroup(1)))
    assert composed == h and hash(composed) == hash(h)
    assert h != Hom(FgGroup(1), g, m.scale(2))


def test_a_value_equals_the_plain_tuple_of_its_fields():
    g = FgGroup(1, (2,))
    assert g == (1, (2,)) and hash(g) == hash((1, (2,)))
    assert IntMatrix(1, 1, ((7,),)) == (1, 1, ((7,),))
    assert g.element([1, 1]) == (g, (1, 1))
    # indexing agrees with iteration and equality: m[i] is field i, not row i
    m = IntMatrix.from_rows(ROWS)
    assert (m[0], m[1], m[2]) == tuple(m) == (2, 3, ROWS) and len(m) == 3


@pytest.mark.parametrize("value", _values(), ids=lambda v: type(v).__name__)
def test_fields_cannot_be_assigned(value):
    for field in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("value", _values(), ids=lambda v: type(v).__name__)
def test_pickle_and_deepcopy_give_an_equal_value_of_the_same_class(value):
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value),
                 copy.copy(value)):
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value)


@pytest.mark.parametrize("value", _holders(), ids=lambda v: type(v).__name__)
def test_values_holding_a_solved_space_are_tuples_and_refuse_assignment(value):
    assert value == tuple(getattr(value, f) for f in value._fields)
    for field in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1


def test_importing_the_command_line_loads_no_dataclasses():
    """-S: no site hook preloads a module, so every one listed came from
    the import itself."""
    root = os.path.dirname(os.path.dirname(tdual.__file__))
    done = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, tdual.cli; print(sorted("
         "{'dataclasses', 'inspect'} & set(sys.modules)))"],
        env={**os.environ, "PYTHONPATH": root}, capture_output=True,
        text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_tuple_operators_are_refused():
    g = FgGroup(1, (2,))
    m = IntMatrix.identity(2)
    h = Hom.identity(g)
    x = g.generator(0)
    for a in (g, m, h):
        with pytest.raises(TypeError):
            a + a
    for a in (g, m, h, x):
        with pytest.raises(TypeError):
            a * 2
        with pytest.raises(TypeError):
            2 * a
        for less in (lambda: a < a, lambda: a <= a, lambda: a > a, lambda: a >= a):
            with pytest.raises(TypeError):
                less()


def test_elements_keep_their_own_sum_and_difference():
    g = FgGroup(1, (4,))
    x, y = g.element([2, 3]), g.element([5, 2])
    assert x + y == g.element([7, 1])
    assert x - y == g.element([-3, 1])
    assert -x == g.element([-2, 1])
    with pytest.raises(ValueError, match="different groups"):
        x + FgGroup(2).element([0, 0])
