"""The memos on the pure group operations and on the base tables.

Every cache is an abelian.memo, listed in abelian._MEMOS: kernel,
cokernel_presentation, section_matrix, solve_hom, direct_sum,
spaces.cohomology_of, gysin.split_degree, the solved total spaces
(gysin.total_space_cohomology) and the report nodes report.group_json,
report.matrix_json and report._table_json each keep their MEMO_SIZE most
recent answers, keyed by argument value and type; cokernel, quotient_by,
direct_sum and kernel share their presentations through
cokernel_presentation, which also keeps the Smith form that kernel,
solve_hom and section_matrix read.  A memo must answer as the plain
function does, hand out one shared value for equal arguments without
factoring anything again, stay within its bound, keep no call that
raises, and empty with abelian.clear_memos(), the one cold-start hook.
No report table refers to a solved total space, so a space the memo lets
go is freed at once.
"""

import gc
import itertools
import sys
import weakref
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdual import abelian, classifying, gysin, report
from tdual.abelian import (
    MEMO_SIZE,
    FgGroup,
    Hom,
    HomError,
    IntMatrix,
    cokernel,
    cokernel_presentation,
    direct_sum,
    kernel,
    section_matrix,
    solve_hom,
)
from tdual import cli
from tdual.cli import run_job
from tdual.report import Table, emit_json, group_json, matrix_json
from tdual.spaces import CatalogSpace, cohomology_of, parse_space

from .test_naming import CATALOG
from .test_sections import surjections
from .test_validation import groups, homs

Z = FgGroup(1)


def _memos() -> list:
    """Every memo any tdual module holds, once each."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name == "tdual" or name.startswith("tdual."):
            for value in vars(mod).values():
                if isinstance(value, type(kernel)):
                    found[id(value)] = value
    return list(found.values())


def _twin_group(g: FgGroup) -> FgGroup:
    return FgGroup(g.free_rank, tuple(g.torsion))


def _twin(h: Hom) -> Hom:
    """An equal hom that shares no object with h."""
    return Hom(_twin_group(h.domain), _twin_group(h.codomain),
               _twin_matrix(h.matrix))


def _twin_matrix(m: IntMatrix) -> IntMatrix:
    return IntMatrix(m.rows, m.cols, tuple(map(tuple, m.entries)))


def _twin_arg(a):
    if isinstance(a, Hom):
        return _twin(a)
    if isinstance(a, IntMatrix):
        return _twin_matrix(a)
    if isinstance(a, int):
        return a
    return _twin_group(a.group).element(list(a.coords))


def _twin_args(args):
    return tuple(map(_twin_arg, args))


def _questions(h, data):
    """(memo, arguments) pairs about h: its kernel, the presentation of its
    cokernel, the section of its cokernel projection, and a solvable and a
    drawn right-hand side."""
    proj = cokernel(h)[1]
    x = h.domain.element([data.draw(st.integers(-9, 9))
                          for _ in range(h.domain.ngens)])
    y = h.codomain.element([data.draw(st.integers(-9, 9))
                            for _ in range(h.codomain.ngens)])
    return [(kernel, (h,)),
            (cokernel_presentation, (abelian._stacked(h),)),
            (section_matrix, (proj,)),
            (solve_hom, (h, h(x))), (solve_hom, (h, y))]


@contextmanager
def counted_snf():
    """Smith forms run inside the block: the yielded list gets each
    factored matrix."""
    calls = []
    original = abelian.smith_normal_form

    def counted(m):
        calls.append(m)
        return original(m)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(abelian, "smith_normal_form", counted)
        yield calls


def test_one_bound_for_every_memo():
    """Every lru_cache a tdual module holds is a memo in the registry,
    each registered once, with one bound; private ones are held too."""
    assert len(set(map(id, abelian._MEMOS))) == len(abelian._MEMOS)
    assert set(map(id, _memos())) == set(map(id, abelian._MEMOS))
    assert {report._table_json, gysin.total_space_cohomology} <= set(_memos())
    assert all(m.cache_info().maxsize == MEMO_SIZE for m in _memos())


@settings(max_examples=150, deadline=None)
@given(homs(), st.data())
def test_memos_answer_as_the_plain_functions(h, data):
    for fn, args in _questions(h, data):
        got = fn(*args)
        want = fn.__wrapped__(*_twin_args(args))
        assert got == want, (fn.__name__, args)


@settings(max_examples=100, deadline=None)
@given(homs())
def test_report_nodes_answer_as_the_plain_functions(h):
    """group_json and matrix_json hand out one Table per value, equal to
    the node the plain function builds."""
    for fn, value, twin in ((group_json, h.domain, _twin_group(h.domain)),
                            (group_json, h.codomain, _twin_group(h.codomain)),
                            (matrix_json, h.matrix, _twin_matrix(h.matrix))):
        node = fn(value)
        assert type(node) is Table and fn(twin) is node
        assert node == fn.__wrapped__(twin)


@settings(max_examples=100, deadline=None)
@given(surjections())
def test_memoized_sections_answer_as_the_plain_function(h):
    assert section_matrix(h) == section_matrix.__wrapped__(_twin(h))


@pytest.mark.parametrize("name", CATALOG)
def test_memoized_base_tables_answer_as_the_plain_function(name):
    space = parse_space(name)
    twin = CatalogSpace(space.kind, space.param)
    for top in (2, 5):
        assert cohomology_of(space, top) == cohomology_of.__wrapped__(twin, top)


@settings(max_examples=100, deadline=None)
@given(homs(), st.data())
def test_a_repeated_question_shares_its_answer_and_factors_nothing(h, data):
    for fn, args in _questions(h, data):
        first = fn(*args)
        with counted_snf() as calls:
            again = fn(*_twin_args(args))
        assert again is first and not calls, fn.__name__
    first = cokernel(h)                       # through cokernel_presentation
    with counted_snf() as calls:
        again = cokernel(_twin(h))
    assert again == first and not calls


def test_equal_direct_sums_share_one_smith_form():
    abelian.clear_memos()
    summands = (FgGroup(0, (2,)), FgGroup(0, (4,)))
    with counted_snf() as calls:
        first = direct_sum(summands)
        again = direct_sum(tuple(map(_twin_group, summands)))
    assert len(calls) == 1 and again == first
    assert first[0] == FgGroup(0, (2, 4))


def _degree_questions() -> list:
    """The split_degree calls, as (args, kwargs), that build every degree
    of the catalog bundles with Euler class 0, g and -3g for each H^2
    generator g, and of the two mapping tori."""
    asked, original = [], gysin.split_degree

    def asking(*args, **kwargs):
        asked.append((args, kwargs))
        return original(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        for owner in (gysin, classifying):
            patch.setattr(owner, "split_degree", asking)
        for name in CATALOG:
            base = cohomology_of(parse_space(name), 5)
            h2 = base.group(2)
            for e in [h2.zero_element()] + [
                    g.scale(c) for g in h2.generators() for c in (1, -3)]:
                gysin.TotalSpaceCohomology(gysin.CircleBundle(base, e), 4)
        classifying.r2_cohomology_computed()
        classifying.r32_cohomology_computed()
    return asked


def _twin_degree_args(args) -> tuple:
    return tuple(_twin(a) if isinstance(a, Hom) else a for a in args)


def test_memoized_degrees_answer_as_the_plain_function():
    abelian.clear_memos()
    for args, kwargs in _degree_questions():
        assert gysin.split_degree(*args, **kwargs) == \
            gysin.split_degree.__wrapped__(*_twin_degree_args(args), **kwargs)


def test_a_repeated_degree_is_shared_and_factors_nothing():
    abelian.clear_memos()
    asked = _degree_questions()
    keys = {(args, tuple(kwargs.items())) for args, kwargs in asked}
    assert len(keys) < len(asked)           # the catalog bundles share degrees
    for args, kwargs in asked:
        first = gysin.split_degree(*args, **kwargs)
        with counted_snf() as calls:
            again = gysin.split_degree(*_twin_degree_args(args), **kwargs)
        assert again is first and not calls


@settings(max_examples=100, deadline=None)
@given(st.lists(groups(), max_size=4).map(tuple))
def test_memoized_direct_sums_answer_as_the_plain_function_and_share(summands):
    first = direct_sum(summands)
    twins = tuple(map(_twin_group, summands))
    assert first == direct_sum.__wrapped__(twins)
    with counted_snf() as calls:
        again = direct_sum(twins)
    assert again is first and not calls


@settings(max_examples=100, deadline=None)
@given(surjections(), st.data())
def test_questions_about_one_hom_share_its_smith_form(h, data):
    """cokernel, kernel, solve_hom and section_matrix all read the
    factorization of [h | relations] that cokernel_presentation keeps."""
    abelian.clear_memos()
    stacked = abelian._stacked(h)
    y = h.codomain.element([data.draw(st.integers(-9, 9))
                            for _ in range(h.codomain.ngens)])
    with counted_snf() as calls:
        cokernel(h)
        kernel(h)
        solve_hom(h, y)
        section_matrix(h)
    assert calls.count(stacked) == 1


def test_every_memo_stays_within_its_bound():
    abelian.clear_memos()
    n = MEMO_SIZE + 5
    scalings = [Hom(Z, Z, IntMatrix.from_rows([[k]])) for k in range(2, n + 2)]
    onto = [Hom(Z, FgGroup(0, (k,)), IntMatrix.from_rows([[1]]))
            for k in range(2, n + 2)]
    tables = itertools.islice(
        ((parse_space(name), top) for name in CATALOG for top in (3, 4, 5)), n)
    questions = {
        kernel: [(h,) for h in scalings],
        cokernel_presentation: [(h.matrix,) for h in scalings],
        section_matrix: [(h,) for h in onto],
        solve_hom: [(scalings[0], Z.element([k])) for k in range(n)],
        cohomology_of: list(tables),
        group_json: [(FgGroup(k),) for k in range(n)],
        matrix_json: [(h.matrix,) for h in scalings],
        gysin.split_degree: [(h, h, ("x",), ("y",), "p[{}]", "z[{}]", False)
                             for h in scalings],
        direct_sum: [((FgGroup(k),),) for k in range(n)],
    }
    for fn, calls in questions.items():
        assert len(set(calls)) == n
        for args in calls:
            fn(*args)
            assert fn.cache_info().currsize <= MEMO_SIZE
        assert fn.cache_info().currsize == MEMO_SIZE


def test_a_failing_section_is_never_kept():
    abelian.clear_memos()
    h = Hom(Z, FgGroup(0, (4,)), IntMatrix.from_rows([[2]]))   # not onto
    for i in range(3):
        with counted_snf() as calls, pytest.raises(HomError):
            section_matrix(_twin(h))
        assert len(calls) == (i == 0)         # factored on the first call only
        assert section_matrix.cache_info().currsize == 0
    with pytest.raises(HomError):             # y outside the codomain
        solve_hom(h, Z.element([1]))
    assert solve_hom.cache_info().currsize == 0


def test_cache_clear_empties_every_memo():
    abelian.clear_memos()
    run_job({"mode": "dualize", "base": "T2", "euler": "0", "flux": "2*vol.z"})
    run_job({"mode": "coset-partition", "base": "T2", "euler": "0",
             "gen": "2*p*(vol)"})
    memos = abelian._MEMOS
    assert all(m.cache_info().currsize for m in memos)
    abelian.clear_memos()
    assert [m.cache_info().currsize for m in memos] == [0] * len(memos)


def _written(euler: int):
    """A weakref to the solved total space over S2 with Euler class euler,
    after a report of it was written, its table's text kept by the table."""
    spec = {"mode": "cohomology", "base": "S2", "euler": str(euler)}
    emit_json(run_job(dict(spec)))
    return weakref.ref(cli._build_total(spec))


def test_a_total_space_the_memo_lets_go_is_freed_at_once():
    """No report table refers to the space: with the collector off,
    eviction and clear_memos() free a solved total space by refcount."""
    abelian.clear_memos()
    gc.disable()
    try:
        evicted = _written(1)
        for euler in range(2, MEMO_SIZE + 2):   # MEMO_SIZE newer bundles
            _written(euler)
        assert evicted() is None
        cleared = _written(1)
        abelian.clear_memos()
        assert cleared() is None
    finally:
        gc.enable()
