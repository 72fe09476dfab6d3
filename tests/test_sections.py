"""Batched solving: section_matrix, is_exact_at and their callers.

section_matrix must give, column for column, what one solve_hom per
codomain generator gives, and coset enumeration built on it must list
exactly the per-element preimages.  is_isomorphism and hom_inverse, which
rest on one cokernel and one section, must agree with the kernel-and-
cokernel definition.  is_exact_at, which tests every kernel column
against one Smith form of the image lattice, must agree with the
per-column oracle.  The Smith-form counts pin that each integer system is
factored once, not once per generator, coset or lattice column.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tdual import abelian
from math import gcd

from tdual.abelian import (
    FgGroup,
    Hom,
    HomError,
    IntMatrix,
    cokernel,
    hom_inverse,
    is_exact_at,
    is_isomorphism,
    kernel,
    quotient_by,
    section_matrix,
    solve_hom,
)
from tdual.cli import run_job
from tdual.gysin import (
    CircleBundle,
    TotalSpaceCohomology,
    exactness_audit,
    total_space_cohomology,
)
from tdual.spaces import cohomology_of, parse_space
from tdual.tduality import ENUMERATION_CAP, coset_partition

from . import oracles

MAX_GENS = 8


@st.composite
def torsion_chains(draw, min_len, max_len):
    n = draw(st.integers(min_len, max_len))
    if n == 0:
        return ()
    chain = [draw(st.integers(2, 4))]
    for _ in range(n - 1):
        chain.append(chain[-1] * draw(st.sampled_from([1, 1, 2, 3])))
    return tuple(chain)


@st.composite
def surjections(draw):
    """Z^n -> codomain with torsion, n <= 8: [I | R] in a scrambled domain basis."""
    free = draw(st.integers(0, 3))
    codomain = FgGroup(free, draw(torsion_chains(1, 4)))
    nb = codomain.ngens
    na = draw(st.integers(nb, MAX_GENS))
    entry = st.integers(-5, 5)
    rows = [[1 if i == j else 0 for j in range(nb)]
            + [draw(entry) for _ in range(na - nb)] for i in range(nb)]
    # unimodular column operations keep the map onto
    for _ in range(draw(st.integers(0, 2 * na))):
        i = draw(st.integers(0, na - 1))
        j = draw(st.integers(0, na - 1))
        if i == j:
            continue
        q = draw(entry)
        for row in rows:
            row[i] += q * row[j]
    order = draw(st.permutations(range(na)))
    rows = [[row[k] for k in order] for row in rows]
    return Hom(FgGroup(na), codomain, IntMatrix.from_rows(rows, na))


@st.composite
def ambient_and_generator(draw):
    free = draw(st.integers(0, 2))
    ambient = FgGroup(free, draw(torsion_chains(1, MAX_GENS - free)))
    gen = ambient.element([draw(st.integers(-6, 6)) for _ in range(ambient.ngens)])
    return ambient, gen


def _order(group, i):
    """Order of canonical generator i; 0 for a free one."""
    return group.torsion[i - group.free_rank] if i >= group.free_rank else 0


def _random_matrix(draw, domain, codomain):
    """A well-defined hom matrix: a torsion generator of order d goes to
    an element killed by d."""
    entry = st.integers(-4, 4)
    cols = []
    for j in range(domain.ngens):
        d = _order(domain, j)
        col = [0 if d else draw(entry) for _ in range(codomain.free_rank)]
        for e in codomain.torsion:
            col.append(draw(entry) * (e // gcd(d, e)))
        cols.append(col)
    return IntMatrix.from_columns(cols, codomain.ngens)


def _random_automorphism(draw, group):
    """A product of elementary automorphisms: e_j -> e_j + q e_i where
    that is well defined, e_j -> u e_j for a unit u, and swaps of
    generators of equal order."""
    n = group.ngens
    h = Hom.identity(group)
    for _ in range(draw(st.integers(0, 3 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        di, dj = _order(group, i), _order(group, j)
        m = [[int(r == c) for c in range(n)] for r in range(n)]
        if i == j:
            units = [u for u in range(1, max(dj, 2)) if gcd(u, dj) == 1]
            m[j][j] = draw(st.sampled_from(units + [-1]))
        elif di == dj and draw(st.booleans()):
            m[i][i] = m[j][j] = 0
            m[i][j] = m[j][i] = 1
        elif dj == 0 or di != 0:
            step = di // gcd(di, dj) if dj else 1
            m[i][j] = draw(st.integers(-3, 3)) * step
        h = Hom(group, group, IntMatrix.from_rows(m, n)).compose(h)
    return h


@st.composite
def homs(draw):
    """Homs between groups with up to 8 generators and torsion: random
    automorphisms, random endomorphisms and random maps between two
    groups."""
    domain = FgGroup(draw(st.integers(0, 3)), draw(torsion_chains(0, 5)))
    kind = draw(st.sampled_from(["automorphism", "endomorphism", "any"]))
    if kind == "automorphism" and domain.ngens:
        return _random_automorphism(draw, domain)
    codomain = domain
    if kind == "any":
        codomain = FgGroup(draw(st.integers(0, 3)), draw(torsion_chains(0, 5)))
    return Hom(domain, codomain, _random_matrix(draw, domain, codomain))


def _group(draw):
    return FgGroup(draw(st.integers(0, 3)), draw(torsion_chains(0, 5)))


def _span(group, idx):
    """The span of the canonical generators idx, itself in canonical form."""
    return FgGroup(sum(1 for i in idx if i < group.free_rank),
                   tuple(_order(group, i) for i in idx if i >= group.free_rank))


@st.composite
def chains(draw):
    """f: A -> B and g: B -> C, each group with free rank, torsion and up
    to 8 generators.  Either both maps are random, or they form a complex:
    f lands in the span of a random set I of generators of B and g kills
    those generators, so g f = 0.  Then f is s = 1, 2 or 4 times the
    inclusion of span(I), or random, and g is the projection onto the
    other generators, or random: the complex is exact or has ker(g)
    larger than im(f).  Entries stay small, as the greedy Smith form
    grows huge ones from the lifts that ker(g) would give."""
    b = _group(draw)
    if draw(st.booleans()):
        a, c = _group(draw), _group(draw)
        return (Hom(a, b, _random_matrix(draw, a, b)),
                Hom(b, c, _random_matrix(draw, b, c)))
    inside = [draw(st.booleans()) for _ in range(b.ngens)]
    idx = [i for i in range(b.ngens) if inside[i]]
    rest = [i for i in range(b.ngens) if not inside[i]]
    if draw(st.booleans()):
        a = _span(b, idx)
        s = draw(st.sampled_from([1, 2, 4]))
        fm = [[s if i == k else 0 for k in idx] for i in range(b.ngens)]
    else:
        a = _group(draw)
        fm = [row if inside[i] else [0] * a.ngens
              for i, row in enumerate(_random_matrix(draw, a, b).entries)]
    if draw(st.booleans()):
        c = _span(b, rest)
        gm = [[int(i == k) for i in range(b.ngens)] for k in rest]
    else:
        c = _group(draw)
        gm = [[0 if inside[i] else x for i, x in enumerate(row)]
              for row in _random_matrix(draw, b, c).entries]
    return (Hom(a, b, IntMatrix.from_rows(fm, a.ngens)),
            Hom(b, c, IntMatrix.from_rows(gm, b.ngens)))


_Z = FgGroup(1)


@settings(max_examples=300, deadline=None)
@given(chains())
@example((Hom(_Z, _Z, IntMatrix.from_rows([[4]])),              # x4, then
          Hom(_Z, FgGroup(0, (2,)), IntMatrix.from_rows([[1]]))))  # Z -> Z/2
@example((Hom(_Z, _Z, IntMatrix.from_rows([[2]])),
          Hom(_Z, FgGroup(0, (2,)), IntMatrix.from_rows([[1]]))))
def test_is_exact_at_matches_per_column_oracle(chain):
    f, g = chain
    assert is_exact_at(f, g) == oracles.exact_per_column(f, g)


@settings(max_examples=200, deadline=None)
@given(surjections())
def test_section_matrix_matches_per_element_solves(h):
    sect = section_matrix(h)
    want = oracles.per_element_preimages(h, h.codomain.generators())
    assert sect.shape == (h.domain.ngens, h.codomain.ngens)
    assert sect.columns() == [x.coords for x in want]


@settings(max_examples=200, deadline=None)
@given(ambient_and_generator())
@example((FgGroup(0), FgGroup(0).zero_element()))        # H^2 = 0
@example((FgGroup(0, (6,)), FgGroup(0, (6,)).element([5])))  # gen spans H^2
@example((FgGroup(1, (4,)), FgGroup(1, (4,)).element([2, 1])))  # free part
def test_coset_representatives_are_per_element_preimages(case):
    ambient, gen = case
    quotient, proj = quotient_by(ambient, [gen])
    want = oracles.per_element_preimages(proj, quotient.generators())
    assert section_matrix(proj).columns() == [x.coords for x in want]
    part = coset_partition(gen)
    assert part.projection == proj
    if quotient.is_finite() and quotient.order() <= 64:
        want = oracles.per_element_preimages(
            proj, oracles.group_elements(quotient))
        assert part.representatives == tuple(x.coords for x in want)


@pytest.mark.parametrize("ambient, gen", [
    (FgGroup(1, (8, 8, 8)), (1, 3, 5, 7)),   # quotient Z/8 + Z/8 + Z/8
    (FgGroup(0, (16, 16, 16)), (2, 4, 6)),   # quotient Z/2 + Z/16 + Z/16
])
def test_coset_lifts_at_the_enumeration_cap_match_per_coset_lifts(ambient, gen):
    part = coset_partition(ambient.element(gen))
    assert len(part.quotient.torsion) == 3
    assert part.quotient.order() == ENUMERATION_CAP
    assert part.representatives == oracles.coset_lifts(
        section_matrix(part.projection), part.quotient, ambient)


def test_section_matrix_rejects_a_non_surjection():
    h = Hom(FgGroup(1), FgGroup(0, (4,)), IntMatrix.from_rows([[2]]))
    with pytest.raises(HomError):
        section_matrix(h)


@settings(max_examples=300, deadline=None)
@given(homs())
def test_is_isomorphism_and_hom_inverse_match_kernel_and_cokernel(h):
    want = kernel(h)[0].is_zero() and cokernel(h)[0].is_zero()
    assert is_isomorphism(h) == want
    if want:
        inv = hom_inverse(h)
        assert inv.compose(h) == Hom.identity(h.domain)
        assert h.compose(inv) == Hom.identity(h.codomain)
    else:
        with pytest.raises(HomError):
            hom_inverse(h)


def test_gysin_degree_keeps_the_cokernel_section():
    """GysinDegree.lift reads the base classes of b and H off the stored
    section: on im(p*) it must be the section of the degree's cokernel
    coker(cup e) and give the solve_hom preimage."""
    for name in ("S2", "T2", "RP5", "CP2", "Sigma3"):
        base = cohomology_of(parse_space(name), 5)
        h2 = base.group(2)
        for e in [h2.zero_element()] + [g.scale(2) for g in h2.generators()]:
            tsc = total_space_cohomology(CircleBundle(base, e), 4)
            for k, d in enumerate(tsc.degrees):
                coker, proj = cokernel(tsc.cups[k])
                assert d.pullback_image.domain == coker
                gens = coker.generators()
                mixed = coker.element([i + 2 for i in range(coker.ngens)])
                for y in gens + [mixed]:
                    x = d.lift(d.pullback_image(y))
                    assert x == solve_hom(proj, y), (name, e.coords, y)


@pytest.fixture
def snf_calls(monkeypatch):
    """SNF calls from here on, counted for a cold job: solved total spaces
    are shared within a process, so the budgets would otherwise depend on
    which earlier test solved the same bundle."""
    total_space_cohomology.cache_clear()
    calls = [0]
    original = abelian.smith_normal_form

    def counted(m):
        calls[0] += 1
        return original(m)

    monkeypatch.setattr(abelian, "smith_normal_form", counted)
    return calls


def test_section_matrix_of_empty_codomain_runs_no_snf(snf_calls):
    h = Hom.zero(FgGroup(2, (3,)), FgGroup(0))
    assert section_matrix(h).shape == (3, 0)
    assert snf_calls[0] == 0


def test_coset_partition_snf_calls_do_not_scale_with_cosets(snf_calls):
    base = cohomology_of(parse_space("S2"), 4)
    tsc = total_space_cohomology(CircleBundle(base, base.group(2).zero_element()), 3)
    counts = []
    for n in (8, 512):
        before = snf_calls[0]
        part = coset_partition(tsc.named_element(2, "p*(vol)").scale(n))
        assert len(part.representatives) == n
        counts.append(snf_calls[0] - before)
    assert counts[0] == counts[1]


def test_enumeration_stops_at_the_cap():
    base = cohomology_of(parse_space("S2"), 4)
    tsc = total_space_cohomology(CircleBundle(base, base.group(2).zero_element()), 3)
    x = tsc.named_element(2, "p*(vol)")
    assert len(coset_partition(x.scale(ENUMERATION_CAP)).representatives) \
        == ENUMERATION_CAP
    over = coset_partition(x.scale(ENUMERATION_CAP + 1))
    assert over.quotient.order() == ENUMERATION_CAP + 1
    assert over.representatives is None


@pytest.mark.parametrize("coords", [(8, 1, 1, 1), (6, 0, 2, 3), (5, 1, 0, 6),
                                    (2, 0, 0, 4), (1, 1, 3, 5)])
def test_mixed_radix_lifts_match_per_element_preimages(coords):
    """Z + Z/2 + Z/4 + Z/8 modulo one generator with a free part: finite
    quotients of several radices, up to the cap."""
    ambient = FgGroup(1, (2, 4, 8))
    quotient, proj = quotient_by(ambient, [ambient.element(coords)])
    assert quotient.is_finite() and len(quotient.torsion) >= 2
    assert quotient.order() <= ENUMERATION_CAP
    part = coset_partition(ambient.element(coords))
    want = oracles.per_element_preimages(proj, oracles.group_elements(quotient))
    assert part.representatives == tuple(x.coords for x in want)


@pytest.mark.parametrize("base,flux,budget", [
    pytest.param("T2", "3*vol.z", 10, id="T2-3*vol.z"),
    pytest.param("RP7", "a.z", 12, id="RP7-a.z")])
def test_dualize_snf_call_budget(snf_calls, base, flux, budget):
    run_job({"mode": "dualize", "base": base, "euler": "0", "flux": flux})
    assert 0 < snf_calls[0] <= budget


def test_dualize_with_b_class_snf_call_budget(snf_calls):
    run_job({"mode": "dualize", "base": "S2", "euler": "0",
             "flux": "6*vol.z", "b": "p*(vol)"})
    assert 0 < snf_calls[0] <= 7


def test_warm_dualize_job_builds_no_degree(snf_calls, monkeypatch):
    built = [0]
    original = TotalSpaceCohomology._build_degree

    def counted(self, k):
        built[0] += 1
        return original(self, k)

    monkeypatch.setattr(TotalSpaceCohomology, "_build_degree", counted)
    job = {"mode": "dualize", "base": "S2", "euler": "2",
           "flux": "3*vol.z", "b": "p*(vol)"}
    runs = []
    for _ in range(2):
        before = (snf_calls[0], built[0])
        doc = run_job(dict(job))
        runs.append((snf_calls[0] - before[0], built[0] - before[1], doc))
    (cold_snf, cold_built, cold_doc), (warm_snf, warm_built, warm_doc) = runs
    assert "error" not in cold_doc
    assert cold_built > 0 and warm_built == 0
    assert warm_snf < cold_snf
    assert warm_doc == cold_doc


@pytest.mark.parametrize("base,euler", [("Sigma8", 2), ("T2", 3)])
def test_exactness_audit_snf_budget(snf_calls, base, euler):
    """After the build, the checks read the Smith forms that
    cokernel_presentation kept from it.  Only the kernel lattices of p* and
    p! that the build never asked for are factored: three here, against a
    budget of one per degree."""
    space = cohomology_of(parse_space(base), 4)
    tsc = total_space_cohomology(
        CircleBundle(space, space.group(2).element([euler])), 3)
    before = snf_calls[0]
    assert exactness_audit(tsc)
    assert 0 < snf_calls[0] - before <= tsc.top + 1


@pytest.mark.parametrize("space,budget", [
    pytest.param("R2", 9, id="R2"), pytest.param("R32", 13, id="R32"),
    pytest.param("E32", 12, id="E32")])
def test_tables_snf_call_budget(snf_calls, space, budget):
    """The mapping torus takes each cover degree's shift once, and
    split_degree one kernel and one cokernel per degree."""
    run_job({"mode": "classifying-tables", "space": space})
    assert 0 < snf_calls[0] <= budget
