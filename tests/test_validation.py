"""The validation boundary of the integer layer.

Only the public constructors (IntMatrix(...), from_rows, from_columns,
FgGroup, element, reduce_coords, scale and Hom(...)) check their input;
they reject anything that is not an int, and Hom a map that is not well
defined on torsion, instead of truncating it.  Every matrix the engine
computes from checked ones is built by the unchecked IntMatrix._of, and
every hom it derives from checked ones (compose, the cokernel projection,
the kernel embedding, the direct-sum maps, Hom.zero, Hom.identity and the
map onto the elements quotient_by divides out) by the unchecked Hom._of,
which stores its matrix reduced, with elements added, mapped or solved
for (solve_hom) by the unchecked FgGroup._element.  So each
must already be what the check would have made of it: the oracles
re-check the matrices and homs of every function that builds with _of,
and every hom built while the catalog sweep runs.  The layers above
refuse classes from the wrong degree the same way.
"""

import re
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tdual import report
from tdual.abelian import (
    FgGroup,
    GroupElement,
    Hom,
    IntMatrix,
    _inverse,
    _section,
    cokernel,
    cokernel_presentation,
    direct_sum,
    image,
    kernel,
    quotient_by,
    section_matrix,
    smith_normal_form,
    solve_hom,
)
from tdual.gysin import CircleBundle, total_space_cohomology
from tdual.spaces import cohomology_of, parse_space
from tdual.tduality import Triple, coset_partition

from . import oracles
from .test_abelian import hermite_only
from .test_report import _sweep_jobs

ROOT = Path(__file__).resolve().parent.parent
DENSE_8X8 = [[(7 * i + 3 * j) % 19 - 9 for j in range(8)] for i in range(8)]


def checked(*matrices):
    for m in matrices:
        assert oracles.is_checked_matrix(m), m
    return True


# ---------------------------------------------------------------------------
# strategies: empty shapes, torsion, dense 8x8
# ---------------------------------------------------------------------------

entries = st.integers(-9, 9)


@st.composite
def matrices(draw, rows=None, cols=None):
    rows = draw(st.integers(0, 8)) if rows is None else rows
    cols = draw(st.integers(0, 8)) if cols is None else cols
    return IntMatrix(rows, cols, tuple(tuple(draw(entries) for _ in range(cols))
                                       for _ in range(rows)))


@st.composite
def groups(draw):
    chain = []
    for _ in range(draw(st.integers(0, 4))):
        chain.append((chain[-1] if chain else 1) * draw(st.sampled_from([1, 2, 3])))
    return FgGroup(draw(st.integers(0, 4)), tuple(d for d in chain if d > 1))


@st.composite
def homs(draw, domain=None):
    """A well-defined hom: a torsion generator of order d goes to an
    element that d kills."""
    domain = draw(groups()) if domain is None else domain
    codomain = draw(groups())
    cols = []
    for j in range(domain.ngens):
        d = domain.torsion[j - domain.free_rank] if j >= domain.free_rank else 0
        col = [0 if d else draw(entries) for _ in range(codomain.free_rank)]
        col += [draw(entries) * (e // gcd(d, e)) for e in codomain.torsion]
        cols.append(col)
    return Hom(domain, codomain, IntMatrix.from_columns(cols, codomain.ngens))


@st.composite
def composable(draw):
    """(h, g) with g after h defined."""
    h = draw(homs())
    return h, draw(homs(h.codomain))


Z3 = FgGroup(0, (3,))


# ---------------------------------------------------------------------------
# the oracle on every engine-built matrix
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(matrices())
@example(IntMatrix.from_rows(DENSE_8X8))
@example(IntMatrix.zeros(0, 5))
@example(IntMatrix.zeros(5, 0))
def test_smith_forms_are_checked_matrices(m):
    greedy, hermite = smith_normal_form(m), hermite_only(m)
    assert checked(*greedy, _inverse(greedy[0])) and checked(*hermite)
    assert greedy[1] == hermite[1]


@settings(max_examples=150, deadline=None)
@given(homs())
def test_kernel_cokernel_image_and_section_are_checked_matrices(h):
    for _, hom in (kernel(h), cokernel(h), image(h)):
        assert checked(hom.matrix)
        assert hom.domain.ngens == hom.matrix.cols
    _, proj = cokernel(h)
    assert checked(section_matrix(proj))


@settings(max_examples=100, deadline=None)
@given(st.lists(groups(), max_size=4))
@example([FgGroup(0, (2,)), Z3])       # Z/2 + Z/3 = Z/6: entries to reduce
def test_direct_sum_maps_are_checked_matrices(summands):
    _, inclusions, projections = direct_sum(tuple(summands))
    assert all(map(oracles.is_checked_hom, inclusions + projections))


@settings(max_examples=150, deadline=None)
@given(composable())
# 2 * 2 = 4, stored as 1 in Z/3
@example((Hom(FgGroup(1), Z3, IntMatrix.from_rows([[2]])),
          Hom(Z3, Z3, IntMatrix.from_rows([[2]]))))
def test_derived_homs_are_checked_homs(pair):
    h, g = pair
    derived = [kernel(h)[1], cokernel(h)[1], g.compose(h),
               Hom.zero(h.domain, g.codomain), Hom.identity(h.codomain),
               quotient_by(h.codomain, [h(x) for x in h.domain.generators()])[1]]
    assert all(map(oracles.is_checked_hom, derived))
    x = h.domain.generators()
    for a, b in zip(x, x[1:] + x[:1]):     # _element: sums and images
        for y in (a + b, h(a)):
            assert GroupElement(y.group, y.coords) == y
        pre = solve_hom(h, h(a))           # _element: canonical preimages
        assert GroupElement(pre.group, pre.coords) == pre and h(pre) == h(a)


def test_every_hom_of_the_catalog_sweep_is_checked(monkeypatch):
    built = []
    unchecked = Hom._of

    def recording(domain, codomain, matrix):
        built.append(unchecked(domain, codomain, matrix))
        return built[-1]

    monkeypatch.setattr(Hom, "_of", staticmethod(recording))
    total_space_cohomology.cache_clear()   # build every table again
    try:
        reports = list(_sweep_jobs())
    finally:
        total_space_cohomology.cache_clear()
    assert len(reports) > 200 and len(built) > 1000
    assert all(map(oracles.is_checked_hom, built))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8), st.data())
def test_matrix_arithmetic_gives_checked_matrices(r, k, c, data):
    a, b = data.draw(matrices(r, k)), data.draw(matrices(k, c))
    a2, extra = data.draw(matrices(r, k)), data.draw(matrices(r, c))
    assert checked(a @ b, a.hstack(extra), a.add(a2), a.scale(data.draw(entries)))
    assert IntMatrix.from_columns(a.columns(), r) == a


def test_dense_arithmetic_matches_the_entrywise_definition():
    m = IntMatrix.from_rows(DENSE_8X8)
    prod = m @ m
    assert checked(prod)
    assert prod.entries == tuple(
        tuple(sum(DENSE_8X8[i][k] * DENSE_8X8[k][j] for k in range(8))
              for j in range(8)) for i in range(8))
    assert m.columns() == [tuple(row[j] for row in DENSE_8X8) for j in range(8)]
    assert IntMatrix.zeros(0, 3).columns() == [(), (), ()]


# ---------------------------------------------------------------------------
# the zero-dimension shortcut of cokernel_presentation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape", [(n, 0) for n in range(7)]
                         + [(0, k) for k in range(1, 7)])
def test_empty_presentation_equals_the_smith_form_path(shape):
    n, k = shape
    relations = IntMatrix.zeros(n, k)
    snf = u, d, _ = smith_normal_form(relations)
    assert d.diagonal() == []  # every row is free, kept in order
    presentation = group, proj, kept, presented = cokernel_presentation(relations)
    assert (group, proj, kept) == (FgGroup(n), u, tuple(range(n)))
    assert presented == snf  # what kernel, solve_hom and section_matrix read
    sect = _section(presentation)  # u is I: read without an inverse
    assert sect == _inverse(u)
    assert checked(proj, sect)


# ---------------------------------------------------------------------------
# the boundary rejects non-integers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("build", [
    lambda: IntMatrix(1, 1, ((1.5,),)),
    lambda: IntMatrix(1, 1, ((True,),)),
    lambda: IntMatrix(1.0, 1, ((1,),)),
    lambda: IntMatrix(-1, 0, ()),
    lambda: IntMatrix(2, 1, ((1,),)),
    lambda: IntMatrix.zeros(-1, 2),
    lambda: IntMatrix.identity(-1),
    lambda: IntMatrix.from_rows([[1, 2.0]]),
    lambda: IntMatrix.from_columns([[1], ["2"]], 1),
    lambda: IntMatrix.identity(2).scale(1.5),
    lambda: FgGroup(1.5),
    lambda: FgGroup(True),
    lambda: FgGroup(0, (2.0,)),
    lambda: FgGroup(0, (2,)).element([3.7]),
    lambda: FgGroup(1).element([False]),
    lambda: FgGroup(1).generator(0).scale(0.5),
    # quotient_by builds its columns unchecked from elements of its group
    lambda: quotient_by(FgGroup(2), [FgGroup(1).generator(0)]),
    lambda: quotient_by(FgGroup(1), [FgGroup(0, (2,)).generator(0)]),
    # above the integer layer, values from the wrong place: a triple below
    # degree 3, b or the flux in the wrong degree, a coset representative
    # outside the generator's group, an unknown report format
    lambda: Triple(_s2_total(2), *_s2_classes(_s2_total(2), 2, 3)),
    lambda: Triple(_s2_total(3), *_s2_classes(_s2_total(3), 3, 3)),
    lambda: Triple(_s2_total(3), *_s2_classes(_s2_total(3), 2, 2)),
    lambda: coset_partition(_s2_total(3).group(2).generator(0),
                            _s2_total(3).group(3).generator(0)),
    lambda: report.emit({}, "yaml"),
])
def test_public_constructors_reject_non_integers(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("bad", [True, False, 1.5, 1.0, "1"])
def test_generator_and_scale_name_the_argument_they_refuse(bad):
    """A bool is an int to Python, but no index or factor here: generator
    and scale refuse every non-int, as IntMatrix.scale does, in a message
    that names the argument rather than the coordinates it would make."""
    g = FgGroup(1, (4,))
    with pytest.raises(ValueError, match="generator index must be an integer"):
        g.generator(bad)
    with pytest.raises(ValueError, match="scale factor must be an integer"):
        g.generator(1).scale(bad)
    with pytest.raises(ValueError, match="scale factor must be an integer"):
        IntMatrix.identity(2).scale(bad)


def _s2_total(top):
    """The lens space over S2 with Euler class 2: H^2 = Z/2, H^3 = Z."""
    base = cohomology_of(parse_space("S2"), top + 1)
    return total_space_cohomology(
        CircleBundle(base, base.named_element(2, "vol").scale(2)), top)


def _s2_classes(tsc, b_degree, flux_degree):
    """Zero classes for b and the flux, in the given degrees."""
    return (tsc.group(b_degree).zero_element(),
            tsc.group(flux_degree).zero_element())


def test_integer_input_is_stored_as_given():
    m = IntMatrix(2, 1, [[3], (-4,)])
    assert m.entries == ((3,), (-4,)) and checked(m)
    assert FgGroup(0, [2, 4]).torsion == (2, 4)
    assert FgGroup(0, (2,)).element([3]).coords == (1,)


def test_only_abelian_builds_unchecked_matrices():
    """The unchecked constructor is private to the integer layer."""
    call = re.compile(r"\b_of\(")
    allowed = {ROOT / "src" / "tdual" / "abelian.py", Path(__file__).resolve()}
    offenders = [str(p.relative_to(ROOT))
                 for top in ("src", "bench", "tests") for p in (ROOT / top).rglob("*.py")
                 if p.resolve() not in allowed and call.search(p.read_text())]
    assert offenders == []
    assert call.search((ROOT / "src" / "tdual" / "abelian.py").read_text())
