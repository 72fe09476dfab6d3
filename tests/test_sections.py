"""Batched preimages of surjections: section_matrix and its callers.

section_matrix must give, column for column, what one solve_hom per
codomain generator gives, and coset enumeration built on it must list
exactly the per-element preimages.  The Smith-form counts pin that each
surjection is factored once, not once per generator or coset.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdual import abelian
from tdual.abelian import FgGroup, Hom, HomError, IntMatrix, quotient_by, section_matrix
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


@pytest.mark.parametrize("base,flux,budget", [("T2", "3*vol.z", 62),
                                              ("RP7", "a.z", 119)])
def test_dualize_snf_call_budget(snf_calls, base, flux, budget):
    run_job({"mode": "dualize", "base": base, "euler": "0", "flux": flux})
    assert 0 < snf_calls[0] <= budget
