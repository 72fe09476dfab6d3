"""Independent brute-force oracles for the exact-arithmetic layer.

Apart from the last nine sections, nothing in here uses the package's
reduction algorithms.  Invariant factors come from determinantal divisors
(gcds of k x k minors), determinants from fraction-free elimination,
Poincare duality is read off the invariant factors of each degree, and
all group-level checks work by enumerating elements of finite groups.
These are the reference implementations the fast code is tested against.
The last nine sections use package code: the per-element solving path
(one Smith form per element or lattice column) that batched code must
match, the per-coset lifts that coset enumeration must match, the
invariants and coinvariants of a deck action, the orbit normal form of a
unipotent deck action, the circle Kunneth product built from the
package's direct sums, the direct-sum naming rule stated part by part,
triples built from coordinates, and the coset witness induced through
H^2(W)/<e, e#>.
"""

from __future__ import annotations

from itertools import combinations, product
from math import gcd, lcm, prod

from tdual.abelian import (
    ZERO_GROUP,
    Hom,
    IntMatrix,
    _back_substitute,
    _preimage_of_zero_lattice,
    cokernel,
    direct_sum,
    hom_inverse,
    is_isomorphism,
    kernel,
    quotient_by,
    section_matrix,
    smith_normal_form,
    solve_hom,
)
from tdual.gysin import CircleBundle, total_space_cohomology
from tdual.spaces import GradedCohomology, sum_named
from tdual.tduality import Triple


# ---------------------------------------------------------------------------
# invariant factors via determinantal divisors
# ---------------------------------------------------------------------------

def _bareiss(a) -> int:
    """Fraction-free (Bareiss) determinant of a square list of row lists,
    which it overwrites."""
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def invariant_factors_oracle(rows):
    """Diagonal of the Smith form via gcds of k x k minors.

    d_k = g_k / g_(k-1) where g_k is the gcd of all k x k minors (g_0 = 1);
    once some g_k vanishes the remaining entries are zero.  Each minor is a
    Bareiss determinant, and a size stops at the first minor that brings
    its gcd to 1.  Minors are read along anti-diagonals of the (row set,
    column set) grid, so rows and columns both vary early: the minors of a
    few fixed rows share the invariant factors of those rows.  A size whose
    gcd stays above 1 reads all C(m,k) C(n,k) minors, so that is only
    sensible for small matrices.
    """
    rows = [list(r) for r in rows]
    m = len(rows)
    n = len(rows[0]) if rows else 0
    result = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        rs, cs = list(combinations(range(m), k)), list(combinations(range(n), k))
        pairs = ((rs[i], cs[t - i]) for t in range(len(rs) + len(cs) - 1)
                 for i in range(max(0, t - len(cs) + 1), min(t + 1, len(rs))))
        g = 0
        for ri, ci in pairs:
            g = gcd(g, _bareiss([[rows[i][j] for j in ci] for i in ri]))
            if g == 1:
                break
        if g == 0:
            result.extend([0] * (min(m, n) - k + 1))
            return result
        result.append(g // prev)
        prev = g
    return result


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------

def determinant(m) -> int:
    """Fraction-free Bareiss determinant of a square IntMatrix."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    return _bareiss([list(row) for row in m.entries])


# ---------------------------------------------------------------------------
# cup products on a torus
# ---------------------------------------------------------------------------

def _wedge_sign(word) -> int:
    """Sign that sorts e_w1 ^ ... ^ e_wk; 0 when an index repeats."""
    if len(set(word)) < len(word):
        return 0
    sign, w = 1, list(word)
    for i in range(len(w)):  # selection sort, one transposition per swap
        k = w.index(min(w[i:]), i)
        if k != i:
            w[i], w[k], sign = w[k], w[i], -sign
    return sign


def torus_cup_matrix(n: int, euler: dict) -> list:
    """Rows of cup with e: H^2(T^n) -> H^4(T^n), the exterior algebra on n
    generators in the bases of sorted index pairs and quadruples.  euler
    maps a pair (p, q), p < q, to the coefficient of e_p ^ e_q in e."""
    return [[sum(c * _wedge_sign(pq + ab) for pq, c in euler.items()
                 if tuple(sorted(pq + ab)) == quad)
             for ab in combinations(range(n), 2)]
            for quad in combinations(range(n), 4)]


# ---------------------------------------------------------------------------
# matrices and homs as the public constructors check them
# ---------------------------------------------------------------------------

def is_checked_matrix(m) -> bool:
    """True iff m passes the check that the engine skips for the matrices
    it computes: the public IntMatrix constructor accepts its fields and
    returns them unchanged, so they are a tuple of int tuples of the
    declared shape (a list where a tuple belongs compares unequal)."""
    try:
        return IntMatrix(m.rows, m.cols, m.entries) == m
    except ValueError:
        return False


def is_checked_hom(h) -> bool:
    """True iff h passes the check that the engine skips for the homs it
    derives from checked ones: its matrix is a checked matrix, and the
    public Hom constructor accepts the fields (so h is well defined on
    torsion) and gives h back (so its torsion rows were stored reduced)."""
    try:
        return is_checked_matrix(h.matrix) and Hom(h.domain, h.codomain, h.matrix) == h
    except ValueError:  # HomError included
        return False


# ---------------------------------------------------------------------------
# brute force over finite groups
# ---------------------------------------------------------------------------
# A finite abelian group is a tuple of moduli (m_1, ..., m_k), elements are
# coordinate tuples mod the moduli.  Homs are matrices applied mod moduli.

def all_elements(moduli):
    return [tuple(c) for c in product(*[range(m) for m in moduli])]


def add(moduli, x, y):
    return tuple((a + b) % m for a, b, m in zip(x, y, moduli))


def apply_matrix(matrix, target_moduli, x):
    out = []
    for i, row in enumerate(matrix):
        out.append(sum(r * c for r, c in zip(row, x)) % target_moduli[i])
    return tuple(out)


def image_set(matrix, src_moduli, dst_moduli):
    return {apply_matrix(matrix, dst_moduli, x) for x in all_elements(src_moduli)}


def kernel_set(matrix, src_moduli, dst_moduli):
    zero = tuple(0 for _ in dst_moduli)
    return {x for x in all_elements(src_moduli)
            if apply_matrix(matrix, dst_moduli, x) == zero}


def exact_at_middle(f_matrix, g_matrix, f_src, middle, g_dst):
    return image_set(f_matrix, f_src, middle) == kernel_set(g_matrix, middle, g_dst)


def subset_order_counts(moduli, subset):
    """For each n dividing the subset size, the count of x with n*x = 0."""
    counts = {}
    size = len(subset)
    for n in range(1, size + 1):
        if size % n:
            continue
        zero = tuple(0 for _ in moduli)
        counts[n] = sum(
            1 for x in subset
            if tuple((n * c) % m for c, m in zip(x, moduli)) == zero)
    return counts


def group_type_matches(subset, moduli, free_rank, torsion):
    """Does a finite subgroup (as an element set) have the claimed type?

    A finite abelian group is determined by the counts of n-torsion
    elements for all n, which for Z/d1 + ... + Z/dk equal
    prod_i gcd(n, d_i).
    """
    if free_rank != 0:
        return False
    claimed_order = prod(torsion) if torsion else 1
    if len(subset) != claimed_order:
        return False
    counts = subset_order_counts(moduli, subset)
    for n, count in counts.items():
        predicted = prod(gcd(n, d) for d in torsion) if torsion else 1
        if count != predicted:
            return False
    return True


def quotient_type(moduli, subgroup):
    """Order-count fingerprint of (prod Z/m_i) / subgroup.

    Returns (size, counts) where counts[n] is the number of cosets killed
    by n, for each n dividing the size.
    """
    elements = all_elements(moduli)
    sub = sorted(subgroup)
    coset_of = {}
    for x in elements:
        coset_of[x] = min(add(moduli, x, s) for s in sub)
    zero_coset = coset_of[tuple(0 for _ in moduli)]
    reps = sorted(set(coset_of.values()))
    size = len(reps)
    counts = {}
    for n in range(1, size + 1):
        if size % n:
            continue
        c = 0
        for rep in reps:
            nx = tuple((n * v) % m for v, m in zip(rep, moduli))
            if coset_of[nx] == zero_coset:
                c += 1
        counts[n] = c
    return size, counts


def quotient_matches(moduli, subgroup, free_rank, torsion):
    if free_rank != 0:
        return False
    size, counts = quotient_type(moduli, subgroup)
    if size != (prod(torsion) if torsion else 1):
        return False
    for n, count in counts.items():
        predicted = prod(gcd(n, d) for d in torsion) if torsion else 1
        if count != predicted:
            return False
    return True


def all_group_moduli_up_to(max_order):
    """All invariant-factor chains (d1 | d2 | ...) with product <= max_order."""
    chains = []

    def extend(chain, start, budget):
        for d in range(max(2, start), budget + 1):
            if chain and d % chain[-1] != 0:
                continue
            new = chain + (d,)
            chains.append(new)
            extend(new, d, budget // d)

    extend((), 2, max_order)
    return [()] + chains


# ---------------------------------------------------------------------------
# Poincare duality of a closed manifold, from its integral groups
# ---------------------------------------------------------------------------

def duality_defects(groups, dim, orientable):
    """Where the integral cohomology H^0..H^dim of a closed dim-manifold
    breaks Poincare duality, as a list of messages (empty if nowhere).

    Every closed manifold: the F_2 Betti numbers are symmetric, b_k =
    b_(dim-k).  By universal coefficients b_k = rank H^k + e_k + e_(k+1),
    with e_k the number of even invariant factors of H^k.  An orientable
    one: the ranks are symmetric, and the torsion of H^k is that of
    H^(dim+1-k) (both are the torsion of H_(k-1)).  Torsion is compared
    by invariant factors; no integer is factored.
    """
    if len(groups) != dim + 1:
        raise ValueError(f"{len(groups)} groups for a {dim}-manifold")
    evens = [sum(1 for d in g.torsion if d % 2 == 0) for g in groups] + [0]
    betti = [g.free_rank + evens[k] + evens[k + 1] for k, g in enumerate(groups)]
    defects = [f"F_2 Betti numbers {betti} are not symmetric"
               ] if betti != betti[::-1] else []
    if orientable:
        ranks = [g.free_rank for g in groups]
        if ranks != ranks[::-1]:
            defects.append(f"ranks {ranks} are not symmetric")
        defects.extend(
            f"torsion of H^{k} {groups[k].torsion} is not that of "
            f"H^{dim + 1 - k} {groups[dim + 1 - k].torsion}"
            for k in range(1, dim // 2 + 1)
            if groups[k].torsion != groups[dim + 1 - k].torsion)
    return defects


# ---------------------------------------------------------------------------
# per-element preimages (one solve_hom, hence one Smith form, per element)
# ---------------------------------------------------------------------------

def element_order(x):
    """Least n >= 1 with n*x = 0 for a GroupElement x; 0 encodes infinite
    order."""
    r = x.group.free_rank
    if any(c != 0 for c in x.coords[:r]):
        return 0
    n = 1
    for c, d in zip(x.coords[r:], x.group.torsion):
        if c != 0:
            n = lcm(n, d // gcd(c, d))
    return n


def group_elements(group):
    """Every element of a finite FgGroup, in itertools.product order."""
    if group.free_rank:
        raise ValueError("cannot enumerate an infinite group")
    return [group.element(c) for c in product(*[range(d) for d in group.torsion])]


def per_element_preimages(h, elements):
    """solve_hom(h, y) for each y, failing loudly on an element off the image."""
    out = []
    for y in elements:
        x = solve_hom(h, y)
        assert x is not None, f"{y.coords} has no preimage"
        out.append(x)
    return out


def pullback_preimage(tsc, k, x):
    """solve_hom(tsc.pullback(k), x): a preimage of x under p* in degree
    k, or None when x is not a pullback; one Smith form per element."""
    return solve_hom(tsc.pullback(k), x)


# ---------------------------------------------------------------------------
# per-coset lifts (one reduce_coords call per coset; uses package code)
# ---------------------------------------------------------------------------

def coset_lifts(section, quotient, ambient):
    """The lift sum_i q_i s_i of every element q of the finite quotient, in
    itertools.product order, each reduced in the ambient group: s_i is
    column i of the section matrix."""
    cols = section.columns()
    return tuple(
        ambient.reduce_coords([sum(q * col[j] for q, col in zip(qs, cols))
                               for j in range(ambient.ngens)])
        for qs in product(*[range(d) for d in quotient.torsion]))


# ---------------------------------------------------------------------------
# injectivity, surjectivity and exactness, one Smith form per lattice column
# ---------------------------------------------------------------------------

def is_injective(h):
    return kernel(h)[0].is_zero()


def is_surjective(h):
    return cokernel(h)[0].is_zero()


def lattice_contains(lattice, vector):
    u, d, _ = smith_normal_form(lattice)
    return _back_substitute(d, u.vec(vector)) is not None


def lattices_equal(a, b):
    return (all(lattice_contains(a, col) for col in b.columns())
            and all(lattice_contains(b, col) for col in a.columns()))


def exact_per_column(f, g):
    """im(f) = ker(g) as lattices of the middle group, column by column."""
    im_lattice = f.matrix.hstack(f.codomain.relations())
    return lattices_equal(im_lattice, _preimage_of_zero_lattice(g))


# ---------------------------------------------------------------------------
# cohomology of an infinite cyclic group action (uses package code)
# ---------------------------------------------------------------------------

def z_group_cohomology(action):
    """Invariants and coinvariants of a classifying.ZAction.

    Returns ((h0, incl), (h1, proj)): h0 = ker(theta - 1) with its
    embedding, h1 = coker(theta - 1) with its projection.
    """
    shift = action.shift()
    h0, incl = kernel(shift)
    h1, proj = cokernel(shift)
    return (h0, incl), (h1, proj)


# ---------------------------------------------------------------------------
# orbits of unipotent actions: unbased classes over the two-sphere (uses
# package code)
# ---------------------------------------------------------------------------

def unbased_classes_over_sphere(action, element):
    """Canonical representative of the orbit of `element` under a
    classifying.ZAction.

    Requires a free group and (theta - 1)^2 = 0, which covers the deck
    actions of the classifying spaces.  The orbit is {v + k*w} for
    w = (theta - 1)v; the representative normalizes the first moving
    coordinate into [0, |shift|).
    """
    if element.group != action.group:
        raise ValueError("element does not live in the acted-on group")
    if not action.group.is_free():
        raise ValueError("orbit normal form implemented for free groups only")
    shift = action.shift()
    if not shift.compose(shift).is_zero_map():
        raise ValueError("orbit normal form needs (theta - 1)^2 = 0")
    w = shift(element)
    if w.is_zero():
        return element
    i = next(idx for idx, c in enumerate(w.coords) if c != 0)
    m = abs(w.coords[i])
    k = ((element.coords[i] % m) - element.coords[i]) // w.coords[i]
    return element + w.scale(k)


# ---------------------------------------------------------------------------
# Kunneth products with a circle (uses package code)
# ---------------------------------------------------------------------------

def kunneth_with_circle(w: GradedCohomology) -> GradedCohomology:
    """Cohomology of W x S^1: H^k = H^k(W) + H^(k-1)(W).

    Generators from H^k(W) keep their names with suffix '.1'; the ones
    coming from H^(k-1)(W) (times the circle class) get suffix '.z'.
    Cup products are defined for classes pulled back from W and act
    blockwise; the circle-factor degree-one classes carry no ring data.
    """
    D = w.max_degree
    groups = []
    names = []
    incls_1 = []
    incls_z = []
    projs_1 = []
    projs_z = []
    for k in range(D + 1):
        wk = w.group(k)
        wk1 = w.group(k - 1)
        nk = tuple(f"{n}.1" for n in w.names[k])
        nk1 = tuple(f"{n}.z" for n in (w.names[k - 1] if k >= 1 else ()))
        total, ns, incls, projs = sum_named([(wk, nk), (wk1, nk1)])
        groups.append(total)
        names.append(ns)
        incls_1.append(incls[0])
        incls_z.append(incls[1])
        projs_1.append(projs[0])
        projs_z.append(projs[1])

    cup_table = None
    if w.cup_gens is not None and D >= 2:
        n2 = groups[2].ngens
        table = []
        for i in range(n2):
            # which original generator does product generator i come from?
            src_w = projs_1[2](groups[2].generator(i))
            src_z = projs_z[2](groups[2].generator(i))
            if not src_z.is_zero() or sum(1 for c in src_w.coords if c) != 1:
                table.append(tuple(None for _ in range(D + 1)))
                continue
            j = next(idx for idx, c in enumerate(src_w.coords) if c)
            if src_w.coords[j] not in (1, -1):
                table.append(tuple(None for _ in range(D + 1)))
                continue
            sign = src_w.coords[j]
            base_gen = w.group(2).generator(j)
            row = []
            for k in range(D + 1):
                if k + 2 > D:
                    row.append(None)
                    continue
                cw_k = w.cup_by(base_gen, k)
                cw_k1 = w.cup_by(base_gen, k - 1) if k >= 1 else Hom.zero(
                    ZERO_GROUP, w.group(k + 1))
                part1 = incls_1[k + 2].compose(cw_k).compose(projs_1[k]).matrix
                partz = incls_z[k + 2].compose(cw_k1).compose(projs_z[k]).matrix
                row.append(part1.add(partz).scale(sign))
            table.append(tuple(row))
        cup_table = tuple(table)

    return GradedCohomology(
        label=f"{w.label}xS1",
        groups=tuple(groups),
        names=tuple(names),
        cup_gens=cup_table,
        simply_connected=False,
    )


# ---------------------------------------------------------------------------
# direct-sum names, part by part (uses package code)
# ---------------------------------------------------------------------------

def unit_index(coords, group):
    """Index of the only nonzero coordinate when it is a unit (+-1, or
    d - 1 on a Z/d coordinate), else None."""
    nz = [i for i, c in enumerate(coords) if c != 0]
    if len(nz) != 1:
        return None
    i = nz[0]
    c = coords[i]
    tors = i - group.free_rank
    if c in (1, -1) or (tors >= 0 and c == group.torsion[tors] - 1):
        return i
    return None


def sum_names_by_parts(parts):
    """The generator names of sum_named(parts), decided one part at a
    time: a generator that projects to zero in all parts but one, and to
    a unit multiple of one generator there, takes its name; any other
    generator i is u<i>."""
    total, _, projs = direct_sum(tuple(g for g, _ in parts))
    columns = [p.matrix.columns() for p in projs]
    names = []
    for i in range(total.ngens):
        hits = [(g, ns, cols[i]) for (g, ns), cols in zip(parts, columns)
                if any(cols[i])]
        label = f"u{i}"
        if len(hits) == 1:
            g, ns, col = hits[0]
            j = unit_index(col, g)
            if j is not None:
                label = ns[j]
        names.append(label)
    return tuple(names)


# ---------------------------------------------------------------------------
# triples from coordinates (uses package code)
# ---------------------------------------------------------------------------

def make_triple(base, euler_coords, b_coords, flux_coords, top):
    """The triple over the cohomology `base` solved through degree top,
    with the Euler class, b and flux given as coordinate lists."""
    e = base.group(2).element(euler_coords)
    total = total_space_cohomology(CircleBundle(base, e), top)
    return Triple(total,
                  total.group(2).element(b_coords),
                  total.group(3).element(flux_coords))


# ---------------------------------------------------------------------------
# the coset witness induced through H^2(W)/<e, e#> (uses package code)
# ---------------------------------------------------------------------------

def coset_isomorphism_through_base(t, dual_total, source_coset, target_coset):
    """The coset witness of `dualize` as (Hom or None, natural), by the
    route through the third group H^2(W)/<e, e#>: both coset quotients are
    induced from it, and the witness is natural iff both induced maps are
    isomorphisms.  Otherwise equal canonical forms get the identity."""
    qw, projw = quotient_by(t.base.group(2), [t.euler, dual_total.euler])
    sect = section_matrix(projw)
    # the maps induced on qw: each composite kills <e, e#>
    p_bar = Hom(qw, source_coset.quotient, source_coset.projection.matrix
                @ t.total.pullback(2).matrix @ sect)
    q_bar = Hom(qw, target_coset.quotient, target_coset.projection.matrix
                @ dual_total.pullback(2).matrix @ sect)
    if is_isomorphism(p_bar) and is_isomorphism(q_bar):
        return q_bar.compose(hom_inverse(p_bar)), True
    if source_coset.quotient == target_coset.quotient:
        return Hom.identity(source_coset.quotient), False
    return None, False
