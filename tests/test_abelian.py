import hashlib
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tdual import abelian, cli, gysin
from tdual.abelian import (
    FgGroup,
    Hom,
    IntMatrix,
    ZERO_GROUP,
    cokernel,
    direct_sum,
    hom_inverse,
    image,
    is_exact_at,
    is_isomorphism,
    kernel,
    quotient_by,
    section_matrix,
    smith_normal_form,
    solve_hom,
    _inverse,
)
from tdual.spaces import cohomology_of, parse_space

from . import oracles
from .oracles import determinant, element_order, is_surjective
from .test_naming import CATALOG


def snf_ok(m: IntMatrix):
    u, d, v = smith_normal_form(m)
    assert (u @ m @ v).entries == d.entries
    assert abs(determinant(u)) == 1
    assert abs(determinant(v)) == 1
    diag = d.diagonal()
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        assert (a == 0 and b == 0) or (a != 0 and b % a == 0)
    return diag


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def test_snf_identity():
    m = IntMatrix.identity(2)
    u, d, v = smith_normal_form(m)
    assert d.diagonal() == [1, 1]
    assert u.entries == IntMatrix.identity(2).entries
    assert v.entries == IntMatrix.identity(2).entries


def test_snf_frozen_examples():
    # expected values computed with the determinantal-divisor oracle
    m1 = [[2, 4], [6, 8]]
    assert oracles.invariant_factors_oracle(m1) == [2, 4]
    assert snf_ok(IntMatrix.from_rows(m1)) == [2, 4]

    m2 = [[0, 1], [0, 0]]
    assert oracles.invariant_factors_oracle(m2) == [1, 0]
    assert snf_ok(IntMatrix.from_rows(m2)) == [1, 0]


def test_snf_rectangular_and_empty():
    assert snf_ok(IntMatrix.from_rows([[6, 10, 15]])) == [1]
    assert snf_ok(IntMatrix.zeros(3, 2)) == [0, 0]
    assert snf_ok(IntMatrix.zeros(0, 4)) == []
    assert snf_ok(IntMatrix.zeros(4, 0)) == []


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_snf_properties_random(rows, cols, data):
    ent = [[data.draw(st.integers(-9, 9)) for _ in range(cols)] for _ in range(rows)]
    m = IntMatrix.from_rows(ent, cols)
    diag = snf_ok(m)
    assert diag == oracles.invariant_factors_oracle(ent)


def hermite_only(m: IntMatrix):
    """smith_normal_form on the bounded path alone: a budget below zero
    stops greedy pivoting before its first elimination step, so the
    Hermite passes do all the work."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(abelian, "_GREEDY_BITS_PER_LINE", -1)
        return smith_normal_form(m)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 9), st.integers(0, 9), st.data())
def test_hermite_path_gives_the_smith_form(rows, cols, data):
    """The bounded path: u m v = d with u, v unimodular and the same
    (unique) d as smith_normal_form."""
    ent = [[data.draw(st.integers(-9, 9)) for _ in range(cols)] for _ in range(rows)]
    m = IntMatrix.from_rows(ent, cols)
    u, d, v = hermite_only(m)
    assert u @ m @ v == d
    assert u @ _inverse(u) == IntMatrix.identity(rows)
    assert abs(determinant(v)) == 1
    assert d == smith_normal_form(m)[1]


def _snf_corpus():
    """Seeded Smith-form inputs: dense 8 x 8 and 9 x 9 with entries in
    [-9, 9], cup matrices of T^5 and T^6 with Euler coefficients in
    [-1, 1], and sparse rectangles from 0 x 0 to 10 x 10."""
    rng = random.Random(28)
    for n, count in ((8, 120), (9, 30)):
        for _ in range(count):
            yield IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(n)]
                                       for _ in range(n)])
    for n in (5,) * 6 + (6,) * 6:
        euler = {pq: rng.randint(-1, 1) for pq in itertools.combinations(range(n), 2)}
        yield IntMatrix.from_rows(oracles.torus_cup_matrix(n, euler))
    for _ in range(600):
        rows, cols, density = rng.randint(0, 10), rng.randint(0, 10), rng.random()
        yield IntMatrix.from_rows([[rng.randint(-9, 9) if rng.random() < density else 0
                                    for _ in range(cols)] for _ in range(rows)], cols)


@pytest.mark.parametrize("path, digest", [
    (smith_normal_form,
     "1fa6fd6858298942a5ca3002208fe67f35b866c50044d140c64de06d98c46635"),
    (hermite_only,
     "d22bd8751643a0bfbbcc9c54c3a4e97a0707bafd2e970454925822c88dbd1650"),
], ids=["default", "hermite-only"])
def test_smith_forms_keep_their_recorded_bits(path, digest):
    """Every (u, u^-1, d, v) of the corpus, hashed: a faster elimination
    must take the same steps, since reports are built from the transforms.
    The digests were recorded before the rows of u rode along with the
    rows of the matrix in one list, and while the elimination still
    carried u^-1 along; _inverse gives the same bits."""
    h = hashlib.sha256()
    for m in _snf_corpus():
        u, d, v = path(m)
        h.update(repr([(x.rows, x.cols, x.entries)
                       for x in (u, _inverse(u), d, v)]).encode())
    assert h.hexdigest() == digest


SMALL_OR_BIG = (st.integers(-9, 9) | st.integers(2**70, 2**80)
                | st.integers(-2**80, -2**70))


@st.composite
def unimodular(draw, n, multipliers=st.integers(-3, 3)):
    """Random row operations R_i += q R_j and swaps on the n x n identity."""
    lines = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 2 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        q = draw(multipliers)
        if i != j and q:
            lines[i] = [x + q * y for x, y in zip(lines[i], lines[j])]
        elif i != j:
            lines[i], lines[j] = lines[j], lines[i]
    return IntMatrix.from_rows(lines, n)


@st.composite
def disguised_smith_forms(draw):
    """(m, its invariant factors): m = P [S 0; 0 B] Q, padded with zeros
    to at most 12 x 12.  S is a diagonal of +-1 pivots; the core B = C E
    has at most 5 rows and columns, entries up to 2^80 and rank at most
    the inner size of C E; P and Q are products of random row operations
    and swaps.  Unimodular P and Q keep the invariant factors of the block
    matrix, which the oracle reads off the small core."""
    def down(n):  # n or less, n first
        return n - draw(st.integers(0, n))

    units, k, l = down(7), down(5), down(5)
    inner = down(min(k, l))
    rows = units + k + draw(st.integers(0, 12 - units - k))
    cols = units + l + draw(st.integers(0, 12 - units - l))
    c = IntMatrix.from_rows([[draw(st.integers(-9, 9)) for _ in range(inner)]
                             for _ in range(k)], inner)
    e = IntMatrix.from_rows([[draw(SMALL_OR_BIG) for _ in range(l)]
                             for _ in range(inner)], l)
    core = (c @ e).entries
    block = [[0] * cols for _ in range(rows)]
    for i in range(units):
        block[i][i] = draw(st.sampled_from([1, -1]))
    for i, row in enumerate(core):
        block[units + i][units:units + l] = row
    p, q = draw(unimodular(rows)), draw(unimodular(cols))
    m = p @ IntMatrix.from_rows(block, cols) @ q
    factors = [1] * units + (oracles.invariant_factors_oracle(core) if k and l else [])
    return m, factors + [0] * (min(rows, cols) - len(factors))


@settings(max_examples=100, deadline=None)
@given(disguised_smith_forms())
def test_smith_forms_of_large_entries_on_both_paths(case):
    """Up to 12 x 12 with entries past 2^80, rank-deficient draws and unit
    pivots, on the default path and on the Hermite passes alone: u m v = d,
    u and v unimodular, and d the oracle's invariant factors on its
    diagonal."""
    m, factors = case
    expected = IntMatrix.from_rows([[factors[i] if i == j else 0 for j in range(m.cols)]
                                    for i in range(m.rows)], m.cols)
    for u, d, v in (smith_normal_form(m), hermite_only(m)):
        assert u @ m @ v == d == expected
        assert u @ _inverse(u) == IntMatrix.identity(m.rows)
        assert abs(determinant(v)) == 1


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 12).flatmap(lambda n: unimodular(n, SMALL_OR_BIG)))
@example(IntMatrix.identity(0))
def test_inverse_of_unimodular_matrices(u):
    """Up to 12 x 12 with row multipliers past 2^80: one Hermite pass on
    [u | I] reads off the two-sided inverse."""
    uinv = _inverse(u)
    assert u @ uinv == IntMatrix.identity(u.rows) == uinv @ u


def test_only_sections_derive_an_inverse(monkeypatch):
    """The Smith form tracks no inverse, and only the readers of a section
    derive one: a question that needs none must not pay for it."""
    gysin.total_space_cohomology.cache_clear()  # every memo cold
    inverses, original = [], abelian._inverse
    monkeypatch.setattr(abelian, "_inverse", lambda u: inverses.append(u) or original(u))
    m = IntMatrix.from_rows([[2, 4, 0], [0, 6, 0], [3, 1, 0]])
    h = Hom(FgGroup(3), FgGroup(3), m)  # free domain, kernel Z, cokernel Z + Z/2
    x = FgGroup(3).element([1, -2, 5])
    smith_normal_form(m)
    assert cokernel(h)[0] == FgGroup(1, (2,))
    assert solve_hom(h, h(x)) is not None
    assert section_matrix(Hom.identity(FgGroup(1, (4,)))) == IntMatrix.identity(2)
    assert kernel(h)[0] == FgGroup(1)
    assert is_exact_at(kernel(h)[1], h)
    assert inverses == []
    direct_sum((FgGroup(0, (2,)), FgGroup(1, (3,))))
    assert len(inverses) == 1


def _max_bits(*matrices):
    return max([abs(x).bit_length() for m in matrices for row in m.entries
                for x in row] or [0])


def _large_matrix(kind, n, bound):
    """Dense n x n with entries in [-9, 9], dense n x 2n (wide), the rank
    n/2 product of dense n x n/2 and n/2 x n, or cup with a random Euler
    class (coefficients in [-bound, bound]) from H^2 to H^4 of T^n."""
    rng = random.Random(100 * n + bound)

    def dense(rows, cols):
        return IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(cols)]
                                    for _ in range(rows)])

    if kind == "dense":
        return dense(n, n)
    if kind == "wide":
        return dense(n, 2 * n)
    if kind == "product":
        return dense(n, n // 2) @ dense(n // 2, n)
    euler = {pq: rng.randint(-bound, bound)
             for pq in itertools.combinations(range(n), 2)}
    return IntMatrix.from_rows(oracles.torus_cup_matrix(n, euler))


@pytest.mark.parametrize("kind, n, bound", [
    *(("dense", n, 9) for n in range(10, 17)),
    ("wide", 16, 9), ("wide", 24, 9), ("product", 24, 9),
    ("torus", 7, 1), ("torus", 7, 3), ("torus", 8, 1), ("torus", 8, 3)])
def test_hermite_path_on_large_matrices(kind, n, bound):
    """Beyond the 9 x 9 of the random tests, on the bounded path alone and
    on the default one (greedy pivoting, then the Hermite passes from where
    it stopped): u m v = d with u and v unimodular, one d for both, and
    small transforms (at most 265 bits alone and 249 by default here).  A
    finish that stops after one row Hermite pass and lets greedy pivoting
    end the job passes the square cases but reaches 735 to 3,854 bits on
    the wide and product ones.  The dense d is the oracle's."""
    m = _large_matrix(kind, n, bound)
    default = smith_normal_form(m)
    d = default[1]
    for u, d_path, v in (hermite_only(m), default):
        uinv = _inverse(u)
        assert u @ m @ v == d_path == d
        assert u @ uinv == IntMatrix.identity(m.rows)
        assert abs(determinant(v)) == 1
        assert _max_bits(u, uinv, v) <= 384
    if kind == "dense":
        assert d.diagonal() == oracles.invariant_factors_oracle(m.entries)


def test_hermite_passes_finish_from_where_greedy_stopped(monkeypatch):
    """Past its budget greedy pivoting hands the partly reduced matrix to
    the Hermite passes, with the transforms built so far: the first pass
    starts from elimination steps already taken, not from the input or a
    permutation of it, and the row of u each row carries is no longer a
    unit row."""
    m = _large_matrix("dense", 10, 9)
    entered = []
    hermite = abelian._hermite

    def recording(a, width):
        entered.append((sorted(x for row in a for x in row[:width]),
                        [row[width:] for row in a]))
        return hermite(a, width)

    monkeypatch.setattr(abelian, "_hermite", recording)
    u, d, v = smith_normal_form(m)
    assert u @ m @ v == d
    assert entered
    matrix, carried = entered[0]
    assert matrix != sorted(x for row in m.entries for x in row)
    assert any(sorted(map(abs, row)) != [0] * (m.rows - 1) + [1] for row in carried)


def test_runaway_greedy_elimination_switches_to_hermite():
    """Greedy pivoting alone takes about 10 s on this kernel and gives its
    inclusion 457,800-bit entries; a dense 12 x 12 Smith form took 57 s.
    Past _GREEDY_GROWTH_BITS both go the bounded way."""
    g = FgGroup(3, (4, 12, 36, 108, 324))
    h = Hom(g, g, IntMatrix.from_rows([
        (-3, 1, 4, 0, 0, 0, 0, 0), (-1, -4, -3, 0, 0, 0, 0, 0),
        (2, 4, 3, 0, 0, 0, 0, 0), (1, 3, 0, 3, 0, 3, 0, 0),
        (0, 4, 10, 6, 10, 8, 8, 3), (34, 0, 3, 0, 0, 4, 33, 1),
        (1, 0, 105, 27, 90, 102, 0, 0), (0, 320, 0, 0, 54, 36, 0, 321)]))
    kg, incl = kernel(h)
    assert kg == FgGroup(0, (3, 36))
    assert h.compose(incl).is_zero_map()
    assert _max_bits(incl.matrix) <= 64

    rng = random.Random(12)
    m = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(12)]
                             for _ in range(12)])
    u, d, v = smith_normal_form(m)
    assert (u @ m @ v).entries == d.entries
    assert _max_bits(u, v) <= 256


def batch_jobs():
    """Jobs shaped like the benchmark's batch-mix corpus: every catalog base,
    Euler class 0 and +-2g, +-3g for each H^2 generator g, six dualize and
    two coset-partition jobs per bundle with coefficients in [-3, 3] (b in
    im(p*)), and the four classifying tables."""
    rng = random.Random(7)

    def draw(n):
        return [rng.randint(-3, 3) for _ in range(n)]

    for base in CATALOG:
        w2 = cohomology_of(parse_space(base), 4).group(2)
        eulers = {w2.zero_element().coords} | {
            g.scale(s).coords for g in w2.generators() for s in (2, -2, 3, -3)}
        for euler in sorted(eulers):
            spec = {"base": base, "euler": list(euler)}
            total = cli.run_job({"mode": "cohomology", **spec})["total_space"]
            names = total["2"]["generators"]
            for _ in range(6):
                b = [c if n.startswith("p*") else 0
                     for c, n in zip(draw(len(names)), names)]
                yield {"mode": "dualize", **spec,
                       "flux": draw(len(total["3"]["generators"])), "b": b}
            for _ in range(2):
                yield {"mode": "coset-partition", **spec, "gen": draw(len(names))}
    for space in ("R2", "R32", "E32", "homotopy"):
        yield {"mode": "classifying-tables", "space": space}


def test_greedy_budget_has_a_margin_on_batch_jobs(monkeypatch):
    """A Smith form that passes the greedy budget is finished by the
    Hermite passes, which take other transforms and can change report
    bytes.  With a third of the per-line budget, no Smith form of a
    batch-shaped sweep enters them, so the budget has room.  Hermite
    passes that _inverse runs outside a Smith form are not counted."""
    fallbacks, open_snfs = [], []
    hermite, snf = abelian._hermite, abelian.smith_normal_form

    def counting(a, width):
        if open_snfs:
            fallbacks.append((len(a), width))
        return hermite(a, width)

    def tracked(m):
        open_snfs.append(m)
        try:
            return snf(m)
        finally:
            open_snfs.pop()

    monkeypatch.setattr(abelian, "_GREEDY_BITS_PER_LINE",
                        abelian._GREEDY_BITS_PER_LINE / 3)
    monkeypatch.setattr(abelian, "_hermite", counting)
    monkeypatch.setattr(abelian, "smith_normal_form", tracked)
    gysin.total_space_cohomology.cache_clear()
    try:
        jobs = 0
        for spec in batch_jobs():
            cli.run_job(spec)
            jobs += 1
    finally:
        gysin.total_space_cohomology.cache_clear()
    assert jobs > 400
    assert fallbacks == []


# ---------------------------------------------------------------------------
# groups and elements
# ---------------------------------------------------------------------------

def test_group_invariants():
    with pytest.raises(ValueError):
        FgGroup(0, (1,))
    with pytest.raises(ValueError):
        FgGroup(0, (4, 2))
    g = FgGroup(1, (2, 4))
    assert g.describe() == "Z + Z/2 + Z/4"
    assert ZERO_GROUP.describe() == "0"
    assert g.order() == 0
    assert FgGroup(0, (2, 4)).order() == 8


def test_element_reduction_and_arith():
    g = FgGroup(1, (3,))
    x = g.element([2, 5])
    assert x.coords == (2, 2)
    assert (x + x).coords == (4, 1)
    assert (-x).coords == (-2, 1)
    assert x.scale(3).coords == (6, 0)


def test_element_order_examples():
    g = FgGroup(0, (5,))
    assert element_order(g.zero_element()) == 1
    assert element_order(g.generator(0)) == 5
    h = FgGroup(1, (2,))
    assert element_order(h.element([1, 1])) == 0  # 0 encodes infinite
    k = FgGroup(0, (2, 6))
    assert element_order(k.element([1, 2])) == 6  # lcm(2, 3)


# ---------------------------------------------------------------------------
# cokernel / kernel / image, frozen examples
# ---------------------------------------------------------------------------

def test_cokernel_z3_mod_pz():
    # Z -> Z^3, x |-> (p x, 0, 0)
    for p in (2, 3, 7):
        h = Hom(FgGroup(1), FgGroup(3), IntMatrix.from_columns([[p, 0, 0]], 3))
        g, proj = cokernel(h)
        assert g == FgGroup(2, (p,))
        assert proj.compose(h).is_zero_map()
        assert is_surjective(proj)


def test_cokernel_identity_is_zero():
    h = Hom.identity(FgGroup(1))
    g, _ = cokernel(h)
    assert g == ZERO_GROUP


def test_cokernel_into_mixed_group():
    # Z -> Z/2 + Z, x |-> (x mod 2, 0): quotient is Z
    # (brute force: the subgroup {(0,0),(1,0)} of C2 x Z has quotient Z)
    cod = FgGroup(1, (2,))  # canonical order: free gen then torsion gen
    h = Hom(FgGroup(1), cod, IntMatrix.from_columns([[0, 1]], 2))
    g, _ = cokernel(h)
    assert g == FgGroup(1)


def test_kernel_projection():
    h = Hom(FgGroup(2), FgGroup(1), IntMatrix.from_rows([[1, 0]]))
    g, incl = kernel(h)
    assert g == FgGroup(1)
    assert h.compose(incl).is_zero_map()
    assert oracles.is_injective(incl)


def test_kernel_times_two_on_z4():
    # oracle: enumerate all four elements of Z/4
    ker_set = oracles.kernel_set([[2]], (4,), (4,))
    assert oracles.group_type_matches(ker_set, (4,), 0, (2,))
    g4 = FgGroup(0, (4,))
    h = Hom(g4, g4, IntMatrix.from_rows([[2]]))
    g, incl = kernel(h)
    assert g == FgGroup(0, (2,))
    assert h.compose(incl).is_zero_map()


def test_kernel_reduction_z_to_z2():
    h = Hom(FgGroup(1), FgGroup(0, (2,)), IntMatrix.from_rows([[1]]))
    g, incl = kernel(h)
    assert g == FgGroup(1)  # 2Z inside Z
    assert abs(incl.matrix.entries[0][0]) == 2


def test_image_multiplication():
    h = Hom(FgGroup(1), FgGroup(1), IntMatrix.from_rows([[5]]))
    g, incl = image(h)
    assert g == FgGroup(1)
    assert abs(incl.matrix.entries[0][0]) == 5


def test_image_nilpotent_matrix():
    h = Hom(FgGroup(2), FgGroup(2), IntMatrix.from_rows([[0, 1], [0, 0]]))
    g, _ = image(h)
    assert g == FgGroup(1)


def test_image_torsion_into_larger():
    # Z/2 -> Z/4 by x |-> 2x (the only nonzero well-defined map)
    img_set = oracles.image_set([[2]], (2,), (4,))
    assert oracles.group_type_matches(img_set, (4,), 0, (2,))
    h = Hom(FgGroup(0, (2,)), FgGroup(0, (4,)), IntMatrix.from_rows([[2]]))
    g, _ = image(h)
    assert g == FgGroup(0, (2,))
    with pytest.raises(ValueError):
        Hom(FgGroup(0, (2,)), FgGroup(0, (4,)), IntMatrix.from_rows([[1]]))


def test_exactness_examples():
    z = FgGroup(1)
    z2 = FgGroup(0, (2,))
    z4 = FgGroup(0, (4,))
    for p in (2, 3, 5):
        zp = FgGroup(0, (p,))
        f = Hom(z, z, IntMatrix.from_rows([[p]]))
        g = Hom(z, zp, IntMatrix.from_rows([[1]]))
        assert is_exact_at(f, g)
    f0 = Hom.zero(z, z)
    g1 = Hom.identity(z)
    assert is_exact_at(f0, g1)  # both image and kernel are 0
    # Z -x2-> Z -proj-> Z/4 fails: im = 2Z, ker = 4Z (oracle: reduce mod 4)
    f2 = Hom(z, z, IntMatrix.from_rows([[2]]))
    g2 = Hom(z, z4, IntMatrix.from_rows([[1]]))
    assert not is_exact_at(f2, g2)
    assert not oracles.exact_at_middle([[2]], [[1]], (4,), (4,), (4,))
    with pytest.raises(ValueError):
        is_exact_at(f2, Hom(z2, z2, IntMatrix.from_rows([[1]])))


# ---------------------------------------------------------------------------
# sums, subgroups, quotients, inverses
# ---------------------------------------------------------------------------

def test_direct_sum_recombines_torsion():
    g, incls, projs = direct_sum((FgGroup(0, (2,)), FgGroup(0, (3,))))
    assert g == FgGroup(0, (6,))
    for h, p in zip(incls, projs):
        assert oracles.is_injective(h)
        assert p.compose(h).matrix.entries == IntMatrix.identity(1).entries


def test_direct_sum_roundtrip():
    parts = (FgGroup(1, (2,)), FgGroup(2), FgGroup(0, (4,)))
    g, incls, projs = direct_sum(parts)
    assert g == FgGroup(3, (2, 4))
    for part, h, p in zip(parts, incls, projs):
        for x in part.generators():
            assert p(h(x)) == x


def test_quotient_and_subgroup():
    g = FgGroup(3)
    x = g.element([2, 0, 0])
    q, proj = quotient_by(g, [x])
    assert q == FgGroup(2, (2,))
    assert proj(x).is_zero()
    cols = IntMatrix.from_columns([x.coords], g.ngens)
    sub, incl = image(Hom(FgGroup(1), g, cols))
    assert sub == FgGroup(1)
    assert incl(sub.generator(0)) in (x, -x)


def test_solve_and_inverse():
    g = FgGroup(0, (4,))
    h = Hom(g, g, IntMatrix.from_rows([[3]]))
    assert is_isomorphism(h)
    inv = hom_inverse(h)
    assert inv.compose(h).matrix.entries == IntMatrix.identity(1).entries
    y = g.element([2])
    x = solve_hom(h, y)
    assert h(x) == y
    # unsolvable case
    h2 = Hom(FgGroup(1), FgGroup(1), IntMatrix.from_rows([[2]]))
    assert solve_hom(h2, FgGroup(1).element([3])) is None


# ---------------------------------------------------------------------------
# randomized cross-checks against the brute-force oracle
# ---------------------------------------------------------------------------

def random_well_defined_hom(rng, domain, codomain):
    """A random hom: each domain generator of order d maps to d-torsion."""
    cols = []
    for j in range(domain.ngens):
        d = 0 if j < domain.free_rank else domain.torsion[j - domain.free_rank]
        coords = []
        for i in range(codomain.ngens):
            if i < codomain.free_rank:
                coords.append(rng.randrange(-4, 5) if d == 0 else 0)
            else:
                m = codomain.torsion[i - codomain.free_rank]
                if d == 0:
                    coords.append(rng.randrange(m))
                else:
                    from math import gcd
                    step = m // gcd(d, m)
                    coords.append(step * rng.randrange(m // step))
        cols.append(coords)
    return Hom(domain, codomain, IntMatrix.from_columns(cols, codomain.ngens))


def test_group_canonical_form_idempotent():
    for g in (FgGroup(0), FgGroup(3), FgGroup(1, (2, 4)), FgGroup(0, (5, 10))):
        assert FgGroup(g.free_rank, g.torsion) == g


def test_kernel_image_cokernel_against_enumeration():
    # groups of order up to 200, per the order-counting oracle contract
    rng = random.Random(20260810)
    chains = [c for c in oracles.all_group_moduli_up_to(200) if c]
    for _ in range(60):
        dom = FgGroup(0, rng.choice(chains))
        cod = FgGroup(0, rng.choice(chains))
        h = random_well_defined_hom(rng, dom, cod)
        matrix_rows = [list(r) for r in h.matrix.entries]
        ker_set = oracles.kernel_set(matrix_rows, dom.torsion, cod.torsion)
        img_set = oracles.image_set(matrix_rows, dom.torsion, cod.torsion)
        kg, _ = kernel(h)
        ig, _ = image(h)
        cg, _ = cokernel(h)
        assert oracles.group_type_matches(ker_set, dom.torsion, kg.free_rank, kg.torsion)
        assert oracles.group_type_matches(img_set, cod.torsion, ig.free_rank, ig.torsion)
        assert oracles.quotient_matches(cod.torsion, img_set, cg.free_rank, cg.torsion)
        # rank bookkeeping: all finite here, so orders multiply up
        assert kg.order() * ig.order() == dom.order()


def test_rank_additivity_on_free_groups():
    rng = random.Random(7)
    for _ in range(40):
        r1, r2 = rng.randrange(0, 4), rng.randrange(0, 4)
        h = Hom(FgGroup(r1), FgGroup(r2), IntMatrix.from_rows(
            [[rng.randrange(-5, 6) for _ in range(r1)] for _ in range(r2)], r1))
        kg, _ = kernel(h)
        ig, _ = image(h)
        assert kg.free_rank + ig.free_rank == r1
