"""Batched preimages of surjections: section_matrix and its callers.

section_matrix must give, column for column, what one solve_hom per
codomain generator gives, and coset enumeration built on it must list
exactly the per-element preimages.  is_isomorphism and hom_inverse, which
rest on one cokernel and one section, must agree with the kernel-and-
cokernel definition.  The Smith-form counts pin that each surjection is
factored once, not once per generator or coset.
"""

import pytest
from hypothesis import given, settings
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
    is_isomorphism,
    kernel,
    quotient_by,
    section_matrix,
)
from tdual.cli import run_job
from tdual.gysin import CircleBundle, total_space_cohomology
from tdual.spaces import cohomology_of, parse_space
from tdual.tduality import coset_partition

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


class _H2Only:
    """Stand-in total space: coset_partition reads nothing but H^2."""

    def __init__(self, h2):
        self.h2 = h2

    def group(self, k):
        assert k == 2
        return self.h2


@settings(max_examples=200, deadline=None)
@given(surjections())
def test_section_matrix_matches_per_element_solves(h):
    sect = section_matrix(h)
    want = oracles.per_element_preimages(h, h.codomain.generators())
    assert sect.shape == (h.domain.ngens, h.codomain.ngens)
    assert sect.columns() == [x.coords for x in want]


@settings(max_examples=200, deadline=None)
@given(ambient_and_generator())
def test_coset_representatives_are_per_element_preimages(case):
    ambient, gen = case
    quotient, proj = quotient_by(ambient, [gen])
    want = oracles.per_element_preimages(proj, quotient.generators())
    assert section_matrix(proj).columns() == [x.coords for x in want]
    part = coset_partition(_H2Only(ambient), gen)
    assert part.projection == proj
    if quotient.is_finite() and quotient.order() <= 64:
        assert part.representatives == tuple(
            oracles.per_element_preimages(proj, quotient.elements()))


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


@pytest.fixture
def snf_calls(monkeypatch):
    calls = [0]
    original = abelian._snf_with_inverses

    def counted(m):
        calls[0] += 1
        return original(m)

    monkeypatch.setattr(abelian, "_snf_with_inverses", counted)
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
        part = coset_partition(tsc, tsc.named_element(2, "p*(vol)").scale(n))
        assert len(part.representatives) == n
        counts.append(snf_calls[0] - before)
    assert counts[0] == counts[1]


@pytest.mark.parametrize("base,flux,budget", [("T2", "3*vol.z", 55),
                                              ("RP7", "a.z", 107)])
def test_dualize_snf_call_budget(snf_calls, base, flux, budget):
    run_job({"mode": "dualize", "base": base, "euler": "0", "flux": flux})
    assert 0 < snf_calls[0] <= budget


def test_dualize_with_b_class_snf_call_budget(snf_calls):
    run_job({"mode": "dualize", "base": "S2", "euler": "0",
             "flux": "6*vol.z", "b": "p*(vol)"})
    assert 0 < snf_calls[0] <= 58


def test_r32_tables_snf_call_budget(snf_calls):
    run_job({"mode": "classifying-tables", "space": "R32"})
    assert 0 < snf_calls[0] <= 50
