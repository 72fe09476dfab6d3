"""Every guard of the engine, reached once.

Shape and membership checks refuse a malformed input with ValueError (or
its subclasses HomError and GysinError); the internal invariant checks of
exactness_audit and dual_flux raise when handed inconsistent data.  The
inconsistent data is built here by hand: total spaces are constructed
directly, never taken from the memo and then altered.
"""

from dataclasses import replace

import pytest

from tdual.abelian import (
    FgGroup,
    Hom,
    HomError,
    IntMatrix,
    ZERO_GROUP,
    sublattice_quotient,
)
from tdual.classifying import ZAction, mapping_torus_cohomology
from tdual.gysin import (
    CircleBundle,
    GysinError,
    TotalSpaceCohomology,
    exactness_audit,
    total_space_cohomology,
)
from tdual.spaces import GradedCohomology, cohomology_of, parse_space
from tdual.tduality import ExactnessBugError, Triple, dual_flux

Z = FgGroup(1)
Z2 = FgGroup(0, (2,))
Z4 = FgGroup(0, (4,))
M23 = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])


# ---------------------------------------------------------------------------
# matrices, groups, elements and homs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("build, message", [
    (lambda: IntMatrix.from_rows([]), "ambiguous"),
    (lambda: IntMatrix.from_columns([(1, 2)], 3), "wrong length"),
    (lambda: M23 @ M23, "shape mismatch"),
    (lambda: M23.vec((1, 2)), "vector length"),
    (lambda: M23.hstack(IntMatrix.zeros(3, 1)), "row count"),
    (lambda: M23.add(IntMatrix.zeros(3, 2)), "shape mismatch"),
    (lambda: FgGroup(2).reduce_coords([1]), "expected 2 coordinates"),
    (lambda: Z.element([1]) + Z2.element([1]), "different groups"),
    (lambda: Z.element([1]) - Z2.element([1]), "different groups"),
    (lambda: sublattice_quotient(IntMatrix.from_rows([[2]]),
                                 IntMatrix.from_rows([[1]])),
     "generator lattice"),
], ids=["from_rows-empty", "from_columns-length", "matmul", "vec", "hstack",
        "add", "reduce_coords", "add-elements", "sub-elements",
        "sublattice-outside"])
def test_the_integer_layer_refuses_mismatched_shapes(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_from_rows_takes_the_column_count_of_an_empty_matrix():
    assert IntMatrix.from_rows([], 3) == IntMatrix.zeros(0, 3)


def test_subtraction_reduces_torsion():
    assert Z4.element([1]) - Z4.element([3]) == Z4.element([2])
    assert Z.element([1]) - Z.element([3]) == Z.element([-2])


@pytest.mark.parametrize("build, message", [
    (lambda: Hom(Z, Z, IntMatrix.from_rows([[1, 2]])), "matrix is"),
    (lambda: Hom.identity(Z)(Z2.element([1])), "not in the domain"),
    (lambda: Hom.identity(Z).compose(Hom.identity(Z2)), "non-composable"),
], ids=["matrix-shape", "element-outside-domain", "compose"])
def test_homs_refuse_what_does_not_fit(build, message):
    with pytest.raises(HomError, match=message):
        build()


# ---------------------------------------------------------------------------
# graded tables
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("groups, names, message", [
    ((Z, Z), (("1",),), "one name tuple per degree"),
    ((Z, Z), (("1",), ()), "0 names for 1 generators"),
])
def test_a_graded_table_checks_its_shape(groups, names, message):
    with pytest.raises(ValueError, match=message):
        GradedCohomology("X", groups, names)


def test_cup_by_needs_a_class_in_h2_and_ring_data():
    t2 = cohomology_of(parse_space("T2"), 2)
    with pytest.raises(ValueError, match="H\\^2"):
        t2.cup_by(t2.named_element(1, "a"), 0)
    bare = GradedCohomology("X", (Z, ZERO_GROUP, Z), (("1",), (), ("x",)))
    with pytest.raises(ValueError, match="no ring data"):
        bare.cup_by(bare.named_element(2, "x"), 0)


def test_base_tables_refuse_degrees_above_their_top():
    # H^2(S2) = Z and H^4(CP2) = Z: a table that stops below them must not
    # answer 0 there, nor hand out a zero cup map into them
    s2 = cohomology_of(parse_space("S2"), 1)
    for read in (s2.group, lambda k: s2.named_element(k, "vol")):
        with pytest.raises(ValueError, match="degree 2 is above .* top degree 1"):
            read(2)
    cp2 = cohomology_of(parse_space("CP2"), 3)
    a = cp2.named_element(2, "a")
    with pytest.raises(ValueError, match="degree 4 is above .* top degree 3"):
        cp2.group(4)
    with pytest.raises(ValueError, match="degree 4 is above .* top degree 3"):
        cp2.cup_by(a, 2)
    # below degree 0 every group is 0, and so is every cup map out of it
    assert cp2.group(-1) == ZERO_GROUP
    assert cp2.cup_by(a, -1) == Hom.zero(ZERO_GROUP, cp2.group(1))
    assert cp2.cup_by(a, 0).matrix == IntMatrix.from_rows([[1]])


@pytest.mark.parametrize("group, i", [
    (FgGroup(1), 5), (FgGroup(2), -1), (FgGroup(2), 2), (ZERO_GROUP, 0),
    (FgGroup(1, (2,)), -2)])
def test_a_group_refuses_a_generator_it_does_not_have(group, i):
    # -1 used to read as "no coordinate is 1": the zero element
    with pytest.raises(ValueError, match=f"no generator {i}$"):
        group.generator(i)


def test_base_tables_refuse_names_below_degree_zero():
    # names[-1] would index the top degree from the end: S3's "vol"
    s3 = cohomology_of(parse_space("S3"), 3)
    with pytest.raises(ValueError, match="degree -1 has no generators"):
        s3.named_element(-1, "vol")
    assert s3.named_element(3, "vol") == s3.group(3).generator(0)


@pytest.mark.parametrize("max_degree", [-1, 13])
def test_base_tables_stop_at_degree_twelve(max_degree):
    with pytest.raises(ValueError, match="max_degree"):
        cohomology_of(parse_space("S2"), max_degree)


# ---------------------------------------------------------------------------
# circle bundles and the Gysin audit
# ---------------------------------------------------------------------------

def _s2_product():
    """S2 x S1 through degree 2, solved directly, outside the memo: e = 0."""
    base = cohomology_of(parse_space("S2"), 3)
    bundle = CircleBundle(base, base.group(2).zero_element())
    return TotalSpaceCohomology(bundle, 2)


def test_the_euler_class_must_lie_in_h2():
    t2 = cohomology_of(parse_space("T2"), 3)
    with pytest.raises(GysinError):
        CircleBundle(t2, t2.named_element(1, "a"))


def test_degrees_outside_the_solved_range_are_refused():
    # solved to top 2, S2 x S1 must not answer for H^3 = Z: it refuses
    tsc = _s2_product()
    for k in (-1, tsc.top + 1):
        for read in (tsc.group, tsc.names, tsc.pullback, tsc.pushforward):
            with pytest.raises(GysinError, match=f"degree {k} .* 0\\.\\.2"):
                read(k)


def _swapped(tsc, k, **maps):
    """tsc with degree k's stored maps replaced."""
    degrees = list(tsc.degrees)
    degrees[k] = replace(degrees[k], **maps)
    tsc.degrees = tuple(degrees)
    return tsc


def test_the_exactness_audit_names_each_failure():
    assert exactness_audit(_s2_product())
    # H^0: p* = 0 leaves H^0(W) = Z in its kernel, but cup e has no image
    tsc = _s2_product()
    broken = _swapped(tsc, 0, pullback=Hom.zero(Z, tsc.group(0)))
    with pytest.raises(GysinError, match="at H\\^0\\(base\\)"):
        exactness_audit(broken)
    # H^1(E) = Z (the fiber class): p! = 0 kills it, but p* is onto 0
    tsc = _s2_product()
    broken = _swapped(tsc, 1, pushforward=Hom.zero(tsc.group(1), Z))
    with pytest.raises(GysinError, match="at H\\^1\\(total space\\)"):
        exactness_audit(broken)
    # p! = 2 on H^1(E) is still injective, but misses H^0(W) = ker(cup 0)
    tsc = _s2_product()
    push = tsc.pushforward(1)
    broken = _swapped(tsc, 1, pushforward=Hom(push.domain, push.codomain,
                                              push.matrix.scale(2)))
    with pytest.raises(GysinError, match="at H\\^0\\(base\\) after p!"):
        exactness_audit(broken)


# ---------------------------------------------------------------------------
# the dual flux
# ---------------------------------------------------------------------------

def test_a_triple_needs_its_total_space_through_degree_three():
    base = cohomology_of(parse_space("S2"), 3)
    tsc = total_space_cohomology(CircleBundle(base, base.group(2).generator(0)), 2)
    zero = tsc.group(2).zero_element()
    with pytest.raises(ValueError, match="^a triple needs total-space data "
                                         "through degree 3$"):
        Triple(tsc, zero, zero)


def test_dual_flux_refuses_the_total_space_of_another_bundle():
    cp2 = cohomology_of(parse_space("CP2"), 5)
    a = cp2.named_element(2, "a")
    source = total_space_cohomology(CircleBundle(cp2, a), 4)  # S^5, H^3 = 0
    t = Triple(source, source.group(2).zero_element(),
               source.group(3).zero_element())
    # the true dual has e# = p!(0) = 0; over e# = a, a cup a != 0, so e
    # is not in ker(cup a) = 0, the image of q!
    with pytest.raises(ExactnessBugError, match="image of q!"):
        dual_flux(t, total_space_cohomology(CircleBundle(cp2, a), 4))
    # cups of e# = 0 with the degrees of e# = a: cups[4] kills e, but the
    # degrees' image of q! is still ker(cup a) = 0
    mixed = TotalSpaceCohomology(CircleBundle(cp2, a), 4)
    mixed.cups = TotalSpaceCohomology(
        CircleBundle(cp2, cp2.group(2).zero_element()), 4).cups
    with pytest.raises(ExactnessBugError, match="image of q!"):
        dual_flux(t, mixed)


# ---------------------------------------------------------------------------
# deck actions
# ---------------------------------------------------------------------------

def test_a_deck_action_must_be_an_endomorphism():
    with pytest.raises(ValueError, match="endomorphism"):
        ZAction(Hom(Z, Z2, IntMatrix.from_rows([[1]])))


def test_a_mapping_torus_action_must_act_on_its_degree():
    # the degree-2 deck matrix acts on H^2(S2) = Z, so it must be 1 x 1;
    # degrees 0 and 1 are checked first and pass
    cover = cohomology_of(parse_space("S2"), 2)
    actions = {0: IntMatrix.identity(1), 2: IntMatrix.identity(2)}
    with pytest.raises(HomError, match="matrix is \\(2, 2\\), expected \\(1, 1\\)"):
        mapping_torus_cohomology(cover, actions)
