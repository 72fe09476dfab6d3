import pytest

from tdual.abelian import FgGroup, ZERO_GROUP
from tdual.spaces import (
    CatalogSpace,
    UnknownSpaceError,
    cohomology_of,
    parse_space,
)

from .oracles import kunneth_with_circle

Z = FgGroup(1)
Z2 = FgGroup(0, (2,))


def groups_of(gc):
    return [gc.group(k) for k in range(gc.max_degree + 1)]


def test_parse_space():
    assert parse_space("S2") == CatalogSpace("sphere", 2)
    assert parse_space("s^3") == CatalogSpace("sphere", 3)
    assert parse_space("T2") == CatalogSpace("torus")
    assert parse_space("Sigma_4") == CatalogSpace("surface", 4)
    assert parse_space("RP5") == CatalogSpace("rp", 5)
    assert parse_space("CP^2") == CatalogSpace("cp2")
    assert parse_space("point") == CatalogSpace("point")
    with pytest.raises(UnknownSpaceError):
        parse_space("RP9")
    with pytest.raises(UnknownSpaceError):
        parse_space("banana")


def test_sphere_table():
    gc = cohomology_of(parse_space("S2"), 3)
    assert groups_of(gc) == [Z, ZERO_GROUP, Z, ZERO_GROUP]


def test_cp2_table_and_ring():
    gc = cohomology_of(parse_space("CP2"), 5)
    assert groups_of(gc) == [Z, ZERO_GROUP, Z, ZERO_GROUP, Z, ZERO_GROUP]
    a = gc.named_element(2, "a")
    cup = gc.cup_by(a, 2)  # a cup a = a^2
    assert cup.matrix.entries == ((1,),)


def test_rp3_table():
    gc = cohomology_of(parse_space("RP3"), 4)
    assert groups_of(gc) == [Z, ZERO_GROUP, Z2, Z, ZERO_GROUP]


def test_rp4_rp5_rings():
    rp4 = cohomology_of(parse_space("RP4"), 6)
    assert groups_of(rp4) == [Z, ZERO_GROUP, Z2, ZERO_GROUP, Z2, ZERO_GROUP, ZERO_GROUP]
    a = rp4.named_element(2, "a")
    assert rp4.cup_by(a, 0).matrix.entries == ((1,),)   # Z -> Z/2
    assert rp4.cup_by(a, 2).matrix.entries == ((1,),)   # a * a = a^2
    rp5 = cohomology_of(parse_space("RP5"), 6)
    assert groups_of(rp5) == [Z, ZERO_GROUP, Z2, ZERO_GROUP, Z2, Z, ZERO_GROUP]
    a5 = rp5.named_element(2, "a")
    assert rp5.cup_by(a5, 2).matrix.entries == ((1,),)
    assert rp5.cup_by(a5, 4).is_zero_map()  # no torsion into H^7 = 0... H^6 here


def test_cup_linearity_in_the_class():
    cp2 = cohomology_of(parse_space("CP2"), 5)
    e = cp2.element(2, [3])
    assert cp2.cup_by(e, 2).matrix.entries == ((3,),)


def test_kunneth_torus():
    t2 = cohomology_of(parse_space("T2"), 3)
    prod = kunneth_with_circle(t2)
    assert groups_of(prod) == [Z, FgGroup(3), FgGroup(3), Z]


def test_kunneth_surface():
    for g in (2, 3):
        sg = cohomology_of(parse_space(f"Sigma{g}"), 3)
        prod = kunneth_with_circle(sg)
        assert groups_of(prod) == [Z, FgGroup(2 * g + 1), FgGroup(2 * g + 1), Z]


def test_kunneth_point_is_circle():
    pt = cohomology_of(parse_space("point"), 1)
    prod = kunneth_with_circle(pt)
    assert groups_of(prod) == [Z, Z]
    assert prod.names[1] == ("1.z",)


def test_kunneth_rp3():
    rp3 = cohomology_of(parse_space("RP3"), 4)
    prod = kunneth_with_circle(rp3)
    assert groups_of(prod) == [Z, Z, Z2, FgGroup(1, (2,)), Z]


def test_kunneth_involution_names():
    # restricting to the '.1' generators recovers the input table
    for name in ("T2", "RP4", "CP2", "S2"):
        w = cohomology_of(parse_space(name), 5)
        prod = kunneth_with_circle(w)
        for k in range(w.max_degree + 1):
            wanted = [f"{n}.1" for n in w.names[k]]
            got = [n for n in prod.names[k] if n.endswith(".1")]
            assert sorted(got) == sorted(wanted)


def test_euler_characteristic_of_products_vanishes():
    for name in ("point", "S2", "S3", "T2", "Sigma2", "RP2", "RP3", "RP4",
                 "RP5", "CP2"):
        w = cohomology_of(parse_space(name), 6)
        assert kunneth_with_circle(w).euler_characteristic() == 0


def test_poincare_duality_ranks():
    cases = {"T2": 2, "Sigma3": 2, "CP2": 4, "S2": 2, "S5": 5}
    for name, dim in cases.items():
        w = cohomology_of(parse_space(name), dim + 1)
        for k in range(dim + 1):
            assert w.group(k).free_rank == w.group(dim - k).free_rank


def test_kunneth_cup_acts_blockwise():
    cp2 = cohomology_of(parse_space("CP2"), 5)
    prod = kunneth_with_circle(cp2)
    e = prod.named_element(2, "a.1")
    cup2 = prod.cup_by(e, 2)
    # a.1 * a.1 = a^2.1
    i = prod.generator_index(2, "a.1")
    img = cup2(prod.group(2).generator(i))
    j = prod.generator_index(4, "a^2.1")
    assert img == prod.group(4).generator(j)
    # a.1 * a.z = a^2.z
    iz = prod.generator_index(3, "a.z")
    img2 = prod.cup_by(e, 3)(prod.group(3).generator(iz))
    jz = prod.generator_index(5, "a^2.z")
    assert img2 == prod.group(5).generator(jz)
    # classes with a '.z' component carry no ring data
    with pytest.raises(ValueError):
        t2prod = kunneth_with_circle(cohomology_of(parse_space("T2"), 4))
        ez = t2prod.named_element(2, "a.z")
        t2prod.cup_by(ez, 0)
