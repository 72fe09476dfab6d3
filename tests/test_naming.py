"""Generator naming: the one inheritance rule and what it names.

unit_index decides for every table whether a canonical generator
inherits a name.  The catalog sweep checks that the inherited names of
every total space mean what they say: p*(g) is the pullback of g, and
g.z integrates over the fiber to g, both up to sign.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from tdual.abelian import FgGroup
from tdual.gysin import CircleBundle, total_space_cohomology
from tdual.spaces import cohomology_of, parse_space, unit_index

MAX_GENS = 8

CATALOG = (["point", "T2", "CP2", "KZ2"]
           + [f"S{n}" for n in range(1, 9)]
           + [f"Sigma{g}" for g in range(2, 9)]
           + [f"RP{n}" for n in range(2, 9)])


@st.composite
def group_and_element(draw):
    """A group with up to 8 generators and torsion d > 2, and an element
    that is often +-(one generator)."""
    free = draw(st.integers(0, 4))
    chain = []
    for _ in range(draw(st.integers(0, MAX_GENS - free))):
        chain.append(chain[-1] * draw(st.sampled_from([1, 1, 2]))
                     if chain else draw(st.integers(3, 7)))
    group = FgGroup(free, tuple(chain))
    if group.ngens and draw(st.booleans()):
        x = group.generator(draw(st.integers(0, group.ngens - 1)))
        x = x.scale(draw(st.sampled_from([1, -1])))
    else:
        x = group.element([draw(st.integers(-3, 3)) for _ in range(group.ngens)])
    return group, x


@settings(max_examples=300, deadline=None)
@given(group_and_element())
def test_unit_index_finds_exactly_the_signed_generators(case):
    group, x = case
    want = None
    for i, g in enumerate(group.generators()):
        if x in (g, -g):
            want = i
    assert unit_index(x.coords, group) == want


def _bundles(name):
    base = cohomology_of(parse_space(name), 9)
    h2 = base.group(2)
    eulers = [h2.zero_element()]
    for g in h2.generators():
        eulers += [g.scale(2), g.scale(-3)]
    for e in eulers:
        yield total_space_cohomology(CircleBundle(base, e), 8)


def test_inherited_names_across_the_catalog():
    checked = 0
    for space in CATALOG:
        for tsc in _bundles(space):
            base = tsc.base
            for k in range(tsc.top + 1):
                for name in tsc.names(k):
                    x = tsc.named_element(k, name)
                    if name.startswith("p*(") and name.endswith(")"):
                        y = tsc.pullback(k)(base.named_element(k, name[3:-1]))
                        assert x in (y, -y), (space, tsc.euler.coords, k, name)
                    elif name.endswith(".z"):
                        g = base.named_element(k - 1, name[:-2])
                        assert tsc.pushforward(k)(x) in (g, -g), (
                            space, tsc.euler.coords, k, name)
                    else:
                        continue
                    checked += 1
    assert checked > 500
