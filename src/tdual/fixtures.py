"""Pinned reference tables for the classifying spaces and their bundles.

R2 classifies pairs (circle bundle, degree-2 class); R32 classifies
triples (circle bundle, degree-2 class, degree-3 class).  Both are
mapping tori of simply connected covers under a unipotent deck action,
and the tables below record their homotopy groups, deck-action matrices,
cohomology, and the cohomology of the canonical bundle E32 over R32 with
its T-dual partner.

Everything in this module is hard data: the computing engines are
cross-checked against these tables, so computed and pinned values are
never conflated.  Generator-name conventions:

  R2:  a (degree 1), b (degree 2, the bundle class), c (degree 3)
  R32: l (degree 1), a1 (bundle class), a2 (its T-dual partner),
       a2l (degree 3), a1^2, a2^2, x (degree 4)
  E32: y = p*(l), b (p!(b) = l), h (p!(h) = a2)
  E32^: yhat = phat*(l), phat*(a1), hhat (phat!(hhat) = a1)
"""

from __future__ import annotations

from .abelian import FgGroup, IntMatrix
from .spaces import GradedCohomology, _build

Z = FgGroup(1)

# ---------------------------------------------------------------------------
# homotopy tables and deck actions
# ---------------------------------------------------------------------------

R2_HOMOTOPY = {1: Z, 2: FgGroup(2)}          # zero above degree 2
R32_HOMOTOPY = {1: Z, 2: FgGroup(3), 3: Z}   # zero above degree 3

# action of the fundamental-group generator on pi_2, column convention
R2_PI2_ACTION = IntMatrix.from_rows([[1, 1], [0, 1]])
R32_PI2_ACTION = IntMatrix.from_rows([[1, 0, 1], [0, 1, 0], [0, 0, 1]])

# deck action on the cover cohomology: degree 2 is the pi_2 matrix,
# degree 4 its induced action on the square basis below
R32_DEGREE4_ACTION = IntMatrix.from_rows([
    [1, 0, 2, 0, 1],
    [0, 1, 0, 0, 0],
    [0, 0, 1, 0, 1],
    [0, 0, 0, 1, 0],
    [0, 0, 0, 0, 1],
])

# ---------------------------------------------------------------------------
# cover cohomology tables (inputs to the mapping-torus engine)
# ---------------------------------------------------------------------------

def r2_cover() -> GradedCohomology:
    """K(Z^2, 2) through degree 3: the universal cover of R2."""
    return _build("R2-cover", 3, {
        0: (Z, ("1",)),
        2: (FgGroup(2), ("b", "y")),
    }, simply_connected=True)


def r32_cover() -> GradedCohomology:
    """R3 x K(Z,2) through degree 4: the universal cover of R32.

    Degree 2 carries a1, a2 (from the pair factor) and c (the K(Z,2)
    class); degree 3 vanishes; degree 4 is spanned by a1^2, a2^2, a1c,
    a2c, c^2 with a1 a2 = 0.
    """
    return _build("R32-cover", 4, {
        0: (Z, ("1",)),
        2: (FgGroup(3), ("a1", "a2", "c")),
        4: (FgGroup(5), ("a1^2", "a2^2", "a1c", "a2c", "c^2")),
    }, simply_connected=True)


# ---------------------------------------------------------------------------
# pinned cohomology of R2 and R32
# ---------------------------------------------------------------------------

def r2_cohomology() -> GradedCohomology:
    return _build("R2", 3, {
        0: (Z, ("1",)),
        1: (Z, ("a",)),
        2: (Z, ("b",)),
        3: (Z, ("c",)),
    }, cup_entries=[
        # b cup 1 = b; a b = 0 so cup-b kills degree 1
        (0, 0, [[1]]),
        (0, 1, [[0]]),
    ], simply_connected=False)


def r32_cohomology() -> GradedCohomology:
    """The triples classifying space with its cup-by-a1/a2 structure.

    Ring facts encoded: a1 l = 0, a1 a2 = 0, a2 l spans degree 3,
    a1^2 and a2^2 are independent in degree 4.
    """
    return _build("R32", 4, {
        0: (Z, ("1",)),
        1: (Z, ("l",)),
        2: (FgGroup(2), ("a1", "a2")),
        3: (Z, ("a2l",)),
        4: (FgGroup(3), ("a1^2", "a2^2", "x")),
    }, cup_entries=[
        # cup with a1 (generator 0)
        (0, 0, [[1], [0]]),
        (0, 1, [[0]]),                    # a1 l = 0
        (0, 2, [[1, 0], [0, 0], [0, 0]]),  # a1*a1 = a1^2, a1*a2 = 0
        # cup with a2 (generator 1)
        (1, 0, [[0], [1]]),
        (1, 1, [[1]]),                    # a2 l = a2l
        (1, 2, [[0, 0], [0, 1], [0, 0]]),  # a2*a1 = 0, a2*a2 = a2^2
    ], simply_connected=False)


# ---------------------------------------------------------------------------
# pinned cohomology of the canonical bundle and its dual
# ---------------------------------------------------------------------------

# degree -> (group, generator names); pushforward images by name (None = 0)
E32_GROUPS = (Z, Z, FgGroup(2), FgGroup(2))
E32_NAMES = (("1",), ("y",), ("p*(a2)", "b"), ("p*(a2l)", "h"))
E32_PUSHFORWARD = {"y": None, "p*(a2)": None, "b": "l",
                   "p*(a2l)": None, "h": "a2"}
E32_PULLBACK_PREIMAGE = {"y": "l", "p*(a2)": "a2", "p*(a2l)": "a2l"}

E32_HAT_GROUPS = (Z, Z, Z, Z)
E32_HAT_NAMES = (("1",), ("yhat",), ("phat*(a1)",), ("hhat",))
E32_HAT_PUSHFORWARD = {"yhat": None, "phat*(a1)": None, "hhat": "a1"}
E32_HAT_PULLBACK_PREIMAGE = {"yhat": "l", "phat*(a1)": "a1"}

# ---------------------------------------------------------------------------
# the self-map exchanging the two bundle classes
# ---------------------------------------------------------------------------

# matrices on H^*(R32) in the basis order of r32_cohomology(), column
# convention; on the bundles, T32 acts as dualize does on the universal
# triple (E32, 0, h): tests/test_classifying.py checks that against the
# paper
T32_ON_R32 = {
    0: IntMatrix.from_rows([[1]]),
    1: IntMatrix.from_rows([[0]]),            # l -> 0
    2: IntMatrix.from_rows([[0, 1], [1, 0]]),  # a1 <-> a2
    3: IntMatrix.from_rows([[0]]),            # a2l -> 0
}

