"""Batch front end: parse job specifications, run the engines, emit reports.

Job modes:

  cohomology         total-space cohomology of one bundle
  dualize            the full T-duality transform of a triple
  coset-partition    partition of H^2(total space) into cosets
  classifying-tables pinned and computed classifying-space tables

Classes are entered either as integer coordinates in the documented
generator order of the relevant degree (a list of ints, or the string
"2,0,1"), or as sums of named generators with integer coefficients
("2*vol.z + 1*p*(vol)"): run the `cohomology` mode to list the generator
names of any space.  A coordinate or max_degree that is not an int (a
float, a bool, a list) is a validation error.

Exit codes: 0 success, 2 validation error (of a job or the job file), 3 a
conjecture-only result was requested under --strict, 4 an internal
invariant failed (HomError, GysinError, ExactnessBugError or
SelfTestError: a defect of the engine, not of the input).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import classifying, fixtures, report
from .abelian import GroupElement, HomError
from .gysin import CircleBundle, GysinError, total_space_cohomology
from .spaces import UnknownSpaceError, cohomology_of, parse_space
from .tduality import (
    BNotLiftableError,
    ExactnessBugError,
    FLAG_B_NOT_LIFTABLE,
    FLAG_CONJECTURE,
    Triple,
    coset_partition,
    dualize,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_STRICT_CONJECTURE = 3
EXIT_INTERNAL = 4

# Failed invariants of the engine; any other ValueError is bad input.
INTERNAL_ERRORS = (HomError, GysinError, ExactnessBugError,
                   classifying.SelfTestError)


class JobError(ValueError):
    """A job specification failed validation; message names the field."""


# ---------------------------------------------------------------------------
# class expressions
# ---------------------------------------------------------------------------

def parse_class(spec, group, names, field: str) -> GroupElement:
    """Parse a class from coordinates or a named-generator expression."""
    if spec is None:
        return group.zero_element()
    if type(spec) is int or isinstance(spec, str):
        text = str(spec).strip()
        if text in ("", "0"):
            return group.zero_element()
        if "*" in text or not all(part.strip().lstrip("+-").isdigit()
                                  for part in text.split(",")):
            return _parse_expression(text, group, names, field)
        spec = [int(part) for part in text.split(",")]
    if not isinstance(spec, (list, tuple)) or not all(type(c) is int for c in spec):
        raise JobError(f"{field}: coordinates must be integers, got {spec!r}")
    if len(spec) != group.ngens:
        raise JobError(
            f"{field}: expected {group.ngens} coordinates, got {len(spec)}")
    return group.element(spec)


def _parse_expression(text: str, group, names, field: str) -> GroupElement:
    """A sum of optionally scaled generator names, such as '2*u + v - t'."""
    coords = [0] * group.ngens
    for term in text.replace("-", "+-").split("+"):
        term = term.strip()
        if not term:
            continue
        coeff = 1
        name = term
        if term.startswith("-"):
            coeff, name = -1, term[1:].strip()
        head, star, tail = name.partition("*")
        if star and head.lstrip("-").isdigit():
            coeff *= int(head)
            name = tail.strip()
        if name not in names:
            raise JobError(
                f"{field}: unknown generator {name!r}; available: {list(names)}")
        coords[names.index(name)] += coeff
    return group.element(coords)


# ---------------------------------------------------------------------------
# job execution
# ---------------------------------------------------------------------------

def _resolve_base(spec):
    name = spec.get("base")
    if not name:
        raise JobError("base: required")
    try:
        return parse_space(str(name))
    except UnknownSpaceError as exc:
        raise JobError(f"base: {exc}") from None


def _default_top(space) -> int:
    dim = space.dimension()
    if dim is None:
        return 4
    return max(3, dim + 1)


def _build_total(spec):
    space = _resolve_base(spec)
    top = spec.get("max_degree")
    if top is None:
        top = _default_top(space)
    elif type(top) is not int:
        raise JobError(f"max_degree: expected an integer, got {top!r}")
    if top < 0 or top > 11:
        raise JobError("max_degree: out of range")
    base = cohomology_of(space, top + 1)
    euler = parse_class(spec.get("euler"), base.group(2), base.names[2], "euler")
    return total_space_cohomology(CircleBundle(base, euler), top)


def run_job(spec: dict) -> dict:
    """Dispatch one job; deterministic output for identical input."""
    mode = spec.get("mode")
    if mode == "cohomology":
        return _job_cohomology(spec)
    if mode == "dualize":
        return _job_dualize(spec)
    if mode == "coset-partition":
        return _job_coset_partition(spec)
    if mode == "classifying-tables":
        return _job_tables(spec)
    raise JobError(f"mode: unknown mode {mode!r}")


def _echo(spec):
    return {k: spec[k] for k in sorted(spec)}


def _job_cohomology(spec) -> dict:
    tsc = _build_total(spec)
    base = tsc.base
    flags = []
    if tsc.ambiguous_degrees():
        flags.append("AMBIGUOUS-EXTENSION")
    return {
        "schema_version": report.SCHEMA_VERSION,
        "mode": "cohomology",
        "input": _echo(spec),
        "base": report.graded_json(base.groups, base.names),
        "euler": list(tsc.euler.coords),
        "total_space": report.total_space_json(tsc),
        "ambiguous_degrees": [[k, "total"] for k in tsc.ambiguous_degrees()],
        "flags": flags,
    }


def _job_dualize(spec) -> dict:
    tsc = _build_total(spec)
    if tsc.top < 3:
        raise JobError("max_degree: dualize needs total-space degree 3")
    flux = parse_class(spec.get("flux"), tsc.group(3), tsc.names(3), "flux")
    try:
        b = parse_class(spec.get("b"), tsc.group(2), tsc.names(2), "b")
        rep = dualize(Triple(tsc, b, flux))
    except BNotLiftableError as exc:
        return {
            "schema_version": report.SCHEMA_VERSION,
            "mode": "dualize",
            "input": _echo(spec),
            "error": str(exc),
            "flags": [FLAG_B_NOT_LIFTABLE],
        }
    dual = rep.dual.total
    amb_group, amb_incl = rep.flux_ambiguity
    doc = {
        "schema_version": report.SCHEMA_VERSION,
        "mode": "dualize",
        "input": _echo(spec),
        "source": {
            "euler": list(tsc.euler.coords),
            "table": report.total_space_json(tsc),
            "flux": list(flux.coords),
            "b": list(b.coords),
        },
        "dual": {
            "euler": list(dual.euler.coords),
            "table": report.total_space_json(dual),
            "flux": list(rep.dual.flux.coords),
            "b": list(rep.dual.b.coords),
        },
        "flux_ambiguity": {
            "subgroup": report.group_json(amb_group),
            "inclusion": report.matrix_json(amb_incl.matrix),
        },
        "cosets": {
            "source": _coset_json(rep.source_coset),
            "target": _coset_json(rep.target_coset),
            "isomorphism": None if rep.coset_iso is None else
                report.hom_json(rep.coset_iso),
            "natural": rep.coset_iso_natural,
        },
        "ambiguous_degrees": [list(x) for x in rep.ambiguous_degrees],
        "flags": sorted(rep.flags),
    }
    return doc


def _coset_json(c) -> dict:
    out = {
        "subgroup_generator": list(c.subgroup_generator.coords),
        "representative": list(c.representative.coords),
        "quotient": report.group_json(c.quotient),
        "projection": report.matrix_json(c.projection.matrix),
        "coset": list(c.coset.coords),
    }
    if c.representatives is not None:
        out["coset_representatives"] = [list(r) for r in c.representatives]
    return out


def _job_coset_partition(spec) -> dict:
    tsc = _build_total(spec)
    gen = parse_class(spec.get("gen"), tsc.group(2), tsc.names(2), "gen")
    part = coset_partition(tsc, gen)
    return {
        "schema_version": report.SCHEMA_VERSION,
        "mode": "coset-partition",
        "input": _echo(spec),
        "h2": report.group_json(tsc.group(2)),
        "generators": list(tsc.names(2)),
        "partition": _coset_json(part),
        "flags": [],
    }


def _job_tables(spec) -> dict:
    which = str(spec.get("space", "")).strip().lower()
    doc = {
        "schema_version": report.SCHEMA_VERSION,
        "mode": "classifying-tables",
        "input": _echo(spec),
        "flags": [],
    }
    if which == "r2":
        out = classifying.r2_cohomology_computed()
        doc["reference"] = report.graded_json(fixtures.R2_GROUPS,
                                              fixtures.r2_cohomology().names)
        doc["computed"] = report.graded_json(out.table.groups, out.table.names)
    elif which in ("r32", "r3,2", "r_32"):
        out = classifying.r32_cohomology_computed()
        doc["reference"] = report.graded_json(fixtures.R32_GROUPS,
                                              fixtures.R32_NAMES)
        doc["computed"] = report.graded_json(out.table.groups, out.table.names)
        doc["note"] = ("computed degree 3 has rank 2; the reference table "
                       "lists rank 1 there (see README, known discrepancy)")
    elif which in ("e32", "e_32"):
        ub = classifying.universal_bundle_tables()
        doc["e32"] = report.graded_json(
            [ub.e32.group(k) for k in range(4)], ub.e32.names)
        doc["e32_hat"] = report.graded_json(
            [ub.e32_hat.group(k) for k in range(4)], ub.e32_hat.names)
    elif which == "homotopy":
        tables = classifying.homotopy_tables()
        doc["r2"] = {str(i): report.group_json(tables.pi("R2", i))
                     for i in range(1, 5)}
        doc["r32"] = {str(i): report.group_json(tables.pi("R32", i))
                      for i in range(1, 5)}
        doc["r2_pi2_action"] = report.matrix_json(tables.r2_pi2_action)
        doc["r32_pi2_action"] = report.matrix_json(tables.r32_pi2_action)
    else:
        raise JobError(f"space: unknown table {which!r} "
                       "(choose R2, R32, E32 or homotopy)")
    return doc


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _add_common(p):
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--strict", action="store_true",
                   help="exit 3 when a result relies on the unproved "
                        "coset-transport case")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdual",
        description="Exact T-duality of circle bundles with flux and B-class")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a batch job file (JSON)")
    run.add_argument("jobfile")
    _add_common(run)

    dual = sub.add_parser("dualize", help="T-dualize one triple")
    dual.add_argument("--base", required=True)
    dual.add_argument("--euler", default="0")
    dual.add_argument("--flux", default="0")
    dual.add_argument("--b", default="0")
    _add_common(dual)

    coh = sub.add_parser("cohomology", help="total-space cohomology table")
    coh.add_argument("--base", required=True)
    coh.add_argument("--euler", default="0")
    _add_common(coh)

    part = sub.add_parser("coset-partition",
                          help="partition H^2 of a total space into cosets")
    part.add_argument("--base", required=True)
    part.add_argument("--euler", default="0")
    part.add_argument("--gen", default="0")
    _add_common(part)

    tab = sub.add_parser("tables", help="classifying-space tables")
    tab.add_argument("space", choices=("R2", "R32", "E32", "homotopy"))
    _add_common(tab)
    return parser


def _spec_from_args(args) -> dict:
    spec = {"mode": {"run": None, "dualize": "dualize",
                     "cohomology": "cohomology",
                     "coset-partition": "coset-partition",
                     "tables": "classifying-tables"}[args.command]}
    if args.command in ("dualize", "cohomology", "coset-partition"):
        spec["base"] = args.base
        spec["euler"] = args.euler
        if args.command == "dualize":
            spec["flux"] = args.flux
            spec["b"] = args.b
        if args.command == "coset-partition":
            spec["gen"] = args.gen
        if args.max_degree is not None:
            spec["max_degree"] = args.max_degree
    if args.command == "tables":
        spec["space"] = args.space
    return spec


def _finish(docs, args, out) -> int:
    payload = docs[0] if len(docs) == 1 else {
        "schema_version": report.SCHEMA_VERSION, "reports": docs}
    out.write(report.emit(payload, args.format))
    code = EXIT_OK
    for doc in docs:
        if FLAG_B_NOT_LIFTABLE in doc.get("flags", ()):
            code = max(code, EXIT_VALIDATION)
        if args.strict and FLAG_CONJECTURE in doc.get("flags", ()):
            code = max(code, EXIT_STRICT_CONJECTURE)
    return code


def main(argv=None, out=None) -> int:
    out = sys.stdout if out is None else out
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            try:
                with open(args.jobfile) as fh:
                    batch = json.load(fh)
            except (OSError, ValueError) as exc:  # unreadable, or not JSON
                raise JobError(f"jobfile: {exc}") from None
            jobs = batch.get("jobs") if isinstance(batch, dict) else batch
            if not (isinstance(jobs, list)
                    and all(isinstance(job, dict) for job in jobs)):
                raise JobError("jobfile: expected {'jobs': [...]} or a list, "
                               "each job an object")
            docs = [run_job(dict(job)) for job in jobs]
        else:
            docs = [run_job(_spec_from_args(args))]
    except INTERNAL_ERRORS as exc:
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL
    except ValueError as exc:  # JobError, UnknownSpaceError, ...
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    return _finish(docs, args, out)


if __name__ == "__main__":
    sys.exit(main())
