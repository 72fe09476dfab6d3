"""Seeded inputs, operations and output checks for the three workloads.

Each workload has three parts:

  generate(seed) -> JSON-able inputs. Runs once per seed in a child
      process (the snf-dense oracle imports sympy there), and the result
      is frozen to a file, so every later run with that seed, on any
      commit, reads byte-identical inputs.
  load(data) -> list of Op. Builds the call arguments from the frozen
      inputs; this is the part of set-up the benchmark times.
  Op.check(output) -> None or a message. Runs outside the timed region.

An op is one closed-loop call into the public API of tdual. Module
attributes are looked up at call time, so the traced run sees every
call through the wrappers it installs.
"""

from __future__ import annotations

import itertools
import json
import random

from tdual import abelian, cli, gysin, report, spaces, tduality

# tduality.ENUMERATION_CAP, fixed here so the inputs never depend on the
# code under test
ENUMERATION_CAP = 512


class Op:
    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


# ---------------------------------------------------------------------------
# batch-mix and coset-enum: jobs for `tdual run`, one op = run_job + emit_json
# ---------------------------------------------------------------------------

# Catalog bases by the shape of H^2: none, Z, or Z/2.
_H2_ZERO = ["point", "S1", "S3", "S4", "S5", "S6", "S7", "S8"]
_H2_Z = ["S2", "T2"] + [f"Sigma{g}" for g in range(2, 9)] + ["CP2", "KZ2"]
_H2_Z2 = [f"RP{n}" for n in range(2, 9)]
TABLES = ["R2", "R32", "E32", "homotopy"]


# The seed picks values, not shapes: nonzero draws stay nonzero and Euler
# classes avoid +-1, so every seed builds groups of the same kinds and the
# per-seed cost of a pass stays steady.
_NONZERO = [-3, -2, -1, 1, 2, 3]


def _eulers(base, rng):
    if base in _H2_ZERO:
        return ["0"]
    if base in _H2_Z2:
        return ["0", "1"]
    return ["0"] + [str(e) for e in rng.sample([-5, -4, -3, -2, 2, 3, 4, 5], 2)]


def _class_text(coords, names, as_names):
    """A class as coordinates, or as a named-generator expression."""
    if not as_names:
        return list(coords)
    terms = [f"{c}*{n}" for c, n in zip(coords, names) if c]
    return " + ".join(terms) if terms else "0"


# Enough draws per bundle that the slowest tenth of the jobs, which sets
# op_p90_ms, holds about the same jobs for every seed.
DUALIZE_PER_BUNDLE = 6
COSET_PARTITIONS_PER_BUNDLE = 2


def _batch_mix(seed):
    """A `tdual run` corpus: every catalog base, up to three Euler classes
    per base, dualize and coset-partition jobs per bundle, and the four
    classifying-tables jobs."""
    rng = random.Random(seed)
    jobs = []
    for base in _H2_ZERO + _H2_Z + _H2_Z2:
        for euler in _eulers(base, rng):
            total = cli.run_job({"mode": "cohomology", "base": base,
                                 "euler": euler})["total_space"]
            h2, h3 = total["2"], total["3"]
            n2, n3 = len(h2["generators"]), len(h3["generators"])
            # b is drawn in im(p*), so it lifts and the coset transport applies
            pulled = [n.startswith("p*") for n in h2["generators"]]
            for i in range(DUALIZE_PER_BUNDLE):
                flux = [rng.choice(_NONZERO) for _ in range(n3)]
                b = [rng.choice(_NONZERO) if p else 0 for p in pulled]
                jobs.append({
                    "mode": "dualize", "base": base, "euler": euler,
                    "flux": _class_text(flux, h3["generators"], i % 2 == 0),
                    "b": _class_text(b, h2["generators"], i % 2 == 1)})
            jobs += [{"mode": "coset-partition", "base": base, "euler": euler,
                      "gen": [rng.choice(_NONZERO) for _ in range(n2)]}
                     for _ in range(COSET_PARTITIONS_PER_BUNDLE)]
    jobs += [{"mode": "classifying-tables", "space": s} for s in TABLES]
    return {"jobs": [{"spec": job} for job in jobs]}


COSET_JOBS_PER_SEED = 150


def _coset_enum(seed):
    rng = random.Random(seed)
    kinds = [
        lambda j: {"mode": "coset-partition", "base": "S2", "euler": "0",
                   "gen": [j]},
        lambda j: {"mode": "coset-partition", "base": "CP2", "euler": "0",
                   "gen": [j]},
        lambda j: {"mode": "coset-partition", "base": "KZ2", "euler": "0",
                   "gen": [j]},
        lambda j: {"mode": "dualize", "base": "CP2", "euler": "0",
                   "flux": f"{j}*a.z", "b": "0"},
        lambda j: {"mode": "dualize", "base": "S2", "euler": "0",
                   "flux": f"{j}*vol.z",
                   "b": f"{rng.randint(1, 9)}*p*(vol)"},
    ]
    # j is uniform on [256, 512], drawn one per stratum for each kind, so
    # every seed asks for about the same number of cosets in all.
    per_kind = COSET_JOBS_PER_SEED // len(kinds)
    draws = []
    for _ in kinds:
        strata = list(range(per_kind))
        rng.shuffle(strata)
        draws.append([256 + int((s + rng.random()) * (ENUMERATION_CAP - 255) / per_kind)
                      for s in strata])
    jobs = []
    for i in range(per_kind * len(kinds)):
        j = draws[i % len(kinds)][i // len(kinds)]
        jobs.append({"spec": kinds[i % len(kinds)](j), "order": j})
    return {"jobs": jobs}


def _finite_order(group):
    if group["rank"]:
        return 0
    n = 1
    for d in group["torsion"]:
        n *= d
    return n


def _check_cosets(part, order=None):
    """Representatives: one per coset, all in distinct classes."""
    q = part["quotient"]
    n = _finite_order(q)
    if order is not None and n != order:
        return f"quotient order {n}, expected {order}"
    reps = part.get("coset_representatives")
    if not (0 < n <= ENUMERATION_CAP):
        return None if reps is None else "representatives of a large quotient"
    if reps is None or len(reps) != n:
        return f"{0 if reps is None else len(reps)} representatives for order {n}"
    proj = part["projection"]["entries"]
    mods = q["torsion"]
    classes = {tuple(sum(a * x for a, x in zip(row, r)) % d
                     for row, d in zip(proj, mods)) for r in reps}
    if len(classes) != n:
        return f"{n} representatives fall in {len(classes)} classes"
    return None


def _euler_char_zero(table, base):
    """chi(E) = 0 for a circle bundle, once the table reaches dim E."""
    dim = spaces.parse_space(base).dimension()
    if dim is None or len(table) < dim + 2:
        return True
    return sum((-1) ** int(k) * v["group"]["rank"] for k, v in table.items()) == 0


def _audit_source(spec, tsc, audited):
    """exactness_audit once per (base, Euler class) of a pass."""
    key = (spec["base"], str(spec["euler"]))
    if key not in audited:
        gysin.exactness_audit(tsc)
        audited.add(key)


def _check_dualize(spec, doc, audited):
    if "error" in doc:
        return f"dualize failed: {doc['error']}"
    for side in ("source", "dual"):
        if not _euler_char_zero(doc[side]["table"], spec["base"]):
            return f"{side} total space has nonzero Euler characteristic"
    tsc = cli._build_total(spec)
    flux = cli.parse_class(spec.get("flux"), tsc.group(3), tsc.names(3), "flux")
    b = cli.parse_class(spec.get("b"), tsc.group(2), tsc.names(2), "b")
    triple = tduality.Triple(tsc, b, flux)
    rep = tduality.dualize(triple)
    dual = rep.dual
    if [list(dual.euler.coords), list(dual.flux.coords), list(dual.b.coords)] != \
            [doc["dual"]["euler"], doc["dual"]["flux"], doc["dual"]["b"]]:
        return "report disagrees with the library transform"
    if list(tduality.dualize(dual).dual.euler.coords) != doc["source"]["euler"]:
        return "dualizing the dual does not give back the Euler class"
    _audit_source(spec, tsc, audited)
    gysin.exactness_audit(dual.total)
    if not tduality.verify_coset_isomorphism(triple, rep):
        return "coset isomorphism does not verify"
    return None


def _check_tables(spec, doc):
    """Computed groups match the pinned reference, except R32 degree 3,
    the documented rank discrepancy (README, criterion 3)."""
    if spec["space"] not in ("R2", "R32"):
        return None
    skip = "3" if spec["space"] == "R32" else None
    groups = {side: {k: v["group"] for k, v in doc[side].items() if k != skip}
              for side in ("computed", "reference")}
    if groups["computed"] != groups["reference"]:
        return f"{spec['space']} groups differ from the reference"
    return None


def _check_batch_job(spec, doc, audited):
    mode = spec["mode"]
    if mode == "dualize":
        return _check_dualize(spec, doc, audited)
    if mode == "coset-partition":
        _audit_source(spec, cli._build_total(spec), audited)
        return _check_cosets(doc["partition"])
    return _check_tables(spec, doc)


def _check_coset_job(spec, doc, order):
    if spec["mode"] == "coset-partition":
        return _check_cosets(doc["partition"], order)
    if "error" in doc:
        return f"dualize failed: {doc['error']}"
    return (_check_cosets(doc["cosets"]["source"], order)
            or _check_cosets(doc["cosets"]["target"], order))


def _job_op(spec, check):
    def run():
        return report.emit_json(cli.run_job(dict(spec)))

    def verify(text):
        return check(json.loads(text))

    return Op(json.dumps(spec, sort_keys=True), run, verify)


def _load_batch_mix(data):
    audited = set()
    return [_job_op(j["spec"],
                    lambda doc, s=j["spec"]: _check_batch_job(s, doc, audited))
            for j in data["jobs"]]


def _load_coset_enum(data):
    return [_job_op(j["spec"],
                    lambda doc, s=j["spec"], n=j["order"]: _check_coset_job(s, doc, n))
            for j in data["jobs"]]


# ---------------------------------------------------------------------------
# snf-dense: library calls on dense and exterior-algebra matrices
# ---------------------------------------------------------------------------

SNF_ITEMS_PER_SEED = 1200
# One cycle of matrix sources; dense 8x8 carries the volume because its
# cost per matrix is steady enough to average over one run (see README).
_SOURCES = ["dense8"] * 15 + ["dense9"] + ["T5"] * 2 + ["T6"] * 2
_KINDS = ["snf", "cokernel", "kernel"]


def wedge_matrix(n, euler):
    """Matrix of (cup e): Lambda^2 -> Lambda^4 of Z^n, the cohomology of T^n.

    euler maps index pairs (p, q), p < q, to the coefficient of e_p^e_q.
    """
    pairs = list(itertools.combinations(range(n), 2))
    quads = {q: i for i, q in enumerate(itertools.combinations(range(n), 4))}
    rows = [[0] * len(pairs) for _ in quads]
    for (p, q), c in euler.items():
        for j, (a, b) in enumerate(pairs):
            word = (p, q, a, b)
            if c == 0 or len(set(word)) < 4:
                continue
            inversions = sum(1 for x, y in itertools.combinations(word, 2) if x > y)
            rows[quads[tuple(sorted(word))]][j] += c * (-1) ** inversions
    return rows


def random_torus_euler(n, rng, bound):
    pairs = list(itertools.combinations(range(n), 2))
    while True:
        e = {p: rng.randint(-bound, bound) for p in pairs}
        if any(e.values()):
            return e


def _snf_dense(seed):
    import sympy
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(seed)
    items = []
    for i in range(SNF_ITEMS_PER_SEED):
        source = _SOURCES[i % len(_SOURCES)]
        if source.startswith("dense"):
            n = int(source[5:])
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        else:
            rows = wedge_matrix(int(source[1:]), random_torus_euler(int(source[1:]), rng, 1))
        d = sympy_snf(sympy.Matrix(rows), domain=sympy.ZZ)
        diag = [abs(int(d[k, k])) for k in range(min(d.shape))]
        factors = sorted(x for x in diag if x) + [0] * diag.count(0)
        items.append({"source": source, "kind": _KINDS[i % len(_KINDS)],
                      "rows": rows, "factors": factors})
    return {"items": items}


def _det(rows):
    """Fraction-free (Bareiss) determinant; independent of tdual."""
    a = [list(r) for r in rows]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap], sign = a[swap], a[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def _mul(x, y):
    cols = list(zip(*y))
    return [[sum(p * q for p, q in zip(row, col)) for col in cols] for row in x]


def _check_snf(rows, factors, out):
    u, d, v = (m.entries for m in out)
    r, c = len(rows), len(rows[0])
    diag = [d[k][k] for k in range(min(r, c))]
    if any(d[i][j] for i in range(r) for j in range(c) if i != j):
        return "d is not diagonal"
    if diag != factors:
        return f"invariant factors {diag}, oracle gives {factors}"
    if _mul(_mul(u, rows), v) != [list(row) for row in d]:
        return "u*m*v != d"
    if abs(_det(u)) != 1 or abs(_det(v)) != 1:
        return "transform is not unimodular"
    return None


def _expected_groups(rows, factors):
    rank = sum(1 for f in factors if f)
    torsion = tuple(f for f in factors if f > 1)
    return (abelian.FgGroup(len(rows) - rank, torsion),
            abelian.FgGroup(len(rows[0]) - rank))


def _check_cokernel(rows, factors, out):
    group, proj = out
    if group != _expected_groups(rows, factors)[0]:
        return f"cokernel {group.describe()} disagrees with the oracle"
    kill = _mul(proj.matrix.entries, rows)
    mods = [0] * group.free_rank + list(group.torsion)
    if any(x % d if d else x for row, d in zip(kill, mods) for x in row):
        return "projection does not kill the image"
    return None


def _check_kernel(rows, factors, out):
    group, incl = out
    if group != _expected_groups(rows, factors)[1]:
        return f"kernel {group.describe()} disagrees with the oracle"
    if group.ngens and any(x for row in _mul(rows, incl.matrix.entries) for x in row):
        return "kernel generators are not killed"
    return None


def _load_snf_dense(data):
    ops = []
    for item in data["items"]:
        rows, factors = item["rows"], item["factors"]
        m = abelian.IntMatrix.from_rows(rows)
        h = abelian.Hom(abelian.FgGroup(m.cols), abelian.FgGroup(m.rows), m)
        kind = item["kind"]
        if kind == "snf":
            run = lambda m=m: abelian.smith_normal_form(m)
            check = lambda out, r=rows, f=factors: _check_snf(r, f, out)
        elif kind == "cokernel":
            run = lambda h=h: abelian.cokernel(h)
            check = lambda out, r=rows, f=factors: _check_cokernel(r, f, out)
        else:
            run = lambda h=h: abelian.kernel(h)
            check = lambda out, r=rows, f=factors: _check_kernel(r, f, out)
        ops.append(Op(f"{kind} {item['source']}", run, check))
    return ops


# ---------------------------------------------------------------------------

GENERATORS = {"batch-mix": _batch_mix, "coset-enum": _coset_enum,
              "snf-dense": _snf_dense}
LOADERS = {"batch-mix": _load_batch_mix, "coset-enum": _load_coset_enum,
           "snf-dense": _load_snf_dense}
# Workloads whose ops emit reports; their bytes are pinned by digest.
REPORTING = ("batch-mix", "coset-enum")
