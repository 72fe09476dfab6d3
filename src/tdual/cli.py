"""Batch front end: parse job specifications, run the engines, emit reports.

Job modes (declared once, in `MODES`, for job files and subcommands alike):

  cohomology         total-space cohomology of one bundle
  dualize            the full T-duality transform of a triple
  coset-partition    partition of H^2(total space) into cosets
  classifying-tables pinned and computed classifying-space tables

Classes are entered either as integer coordinates in the documented
generator order of the relevant degree (a list of ints, or the string
"2,0,1"), or as sums of named generators with integer coefficients
("2*vol.z + 1*p*(vol)"): run the `cohomology` mode to list the generator
names of any space.  A coordinate or max_degree that is not an int (a
float, a bool, a list), and a field that the job's mode does not take,
are validation errors.

Exit codes: 0 success, 2 validation error (of a job or the job file), 3 a
conjecture-only result was requested under --strict, 4 an internal
invariant failed (HomError, GysinError, ExactnessBugError or
SelfTestError: a defect of the engine, not of the input).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Callable, NamedTuple

from . import classifying, fixtures, report
from .abelian import GroupElement, HomError, ZERO_GROUP
from .gysin import CircleBundle, GysinError, total_space_cohomology
from .spaces import UnknownSpaceError, cohomology_of, parse_space
from .tduality import (
    BNotLiftableError,
    ExactnessBugError,
    FLAG_AMBIGUOUS,
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
        spec = [_integer(part.strip(), field) for part in text.split(",")]
        if None in spec:
            if "," in text:  # a coordinate list, never an expression
                raise JobError(
                    f"{field}: coordinates must be integers, got {text!r}")
            return _parse_expression(text, group, names, field)
    if not isinstance(spec, (list, tuple)) or not all(type(c) is int for c in spec):
        raise JobError(f"{field}: coordinates must be integers, got {spec!r}")
    if len(spec) != group.ngens:
        raise JobError(
            f"{field}: expected {group.ngens} coordinates, got {len(spec)}")
    return group.element(spec)


def _integer(text: str, field: str):
    """text as an int, or None if it holds more than signs and digits (of
    any script) and so is no number; only ASCII [+-]?[0-9]+ is accepted."""
    if not text or not all(c in "+-" or c.isnumeric() for c in text):
        return None
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise JobError(f"{field}: {text!r} is not an integer")
    try:
        return int(text)
    except ValueError:  # past the interpreter's digit limit
        raise JobError(
            f"{field}: an integer of {len(text.lstrip('+-'))} digits exceeds "
            f"the limit of {sys.get_int_max_str_digits()} digits") from None


def _parse_expression(text: str, group, names, field: str) -> GroupElement:
    """A sum of optionally scaled generator names, such as '2*u + v - t'."""
    coords = [0] * group.ngens
    terms = text.removeprefix("+").replace("-", "+-").split("+")
    for term, after in zip(terms, terms[1:] + [""]):
        if not term.strip() and after.startswith("-"):
            continue  # the start of '-x' or the '+' of '+ -x'
        coeff = 1
        name = term.strip()
        if name.startswith("-"):
            coeff, name = -1, name[1:].strip()
        head, star, tail = name.partition("*")  # p*(g) keeps its own '*'
        n = _integer(head.strip(), field) if star else None
        if n is not None:
            coeff, name = coeff * n, tail.strip()
        if not name:
            raise JobError(f"{field}: malformed expression {text!r}: "
                           f"a term names no generator")
        if name not in names:
            raise JobError(
                f"{field}: unknown generator {name!r}; available: {list(names)}")
        coords[names.index(name)] += coeff
    return group.element(coords)


# ---------------------------------------------------------------------------
# job execution
# ---------------------------------------------------------------------------

def _build_total(spec):
    name = spec.get("base")
    if not name:
        raise JobError("base: required")
    try:
        space = parse_space(str(name))
    except UnknownSpaceError as exc:
        raise JobError(f"base: {exc}") from None
    top = spec.get("max_degree")
    if top is None:
        dim = space.dimension()
        top = 4 if dim is None else max(3, dim + 1)
    elif type(top) is not int:
        raise JobError(f"max_degree: expected an integer, got {top!r}")
    if top < 0 or top > 11:
        raise JobError("max_degree: out of range")
    # the Euler class lives in H^2 of the base, whatever the top degree
    base = cohomology_of(space, max(top + 1, 2))
    euler = parse_class(spec.get("euler"), base.group(2), base.names[2], "euler")
    return total_space_cohomology(CircleBundle(base, euler), top)


def run_job(spec: dict) -> dict:
    """Dispatch one job; deterministic output for identical input.  Reports
    share one node per distinct total-space table, group and matrix (report
    memos), which emit_json writes once per indent: a report is read-only."""
    name = spec.get("mode")
    mode = MODES.get(name) if isinstance(name, str) else None
    if mode is None:
        raise JobError(f"mode: unknown mode {name!r}")
    for field in spec:
        if field != "mode" and field not in mode.fields:
            raise JobError(f"{field}: not a field of mode {name!r}")
    return mode.handler(spec)


def _report(spec, flags, **body) -> dict:
    """A report: the keys every mode writes, then the mode's own keys."""
    return {"schema_version": report.SCHEMA_VERSION, "mode": spec["mode"],
            "input": dict(spec), "flags": flags, **body}


def _job_cohomology(spec) -> dict:
    """Total-space cohomology table of one bundle."""
    tsc = _build_total(spec)
    ambiguous = tsc.ambiguous_degrees()
    return _report(spec, [FLAG_AMBIGUOUS] if ambiguous else [],
                   base=report.graded_json(tsc.base.groups, tsc.base.names),
                   euler=list(tsc.euler.coords),
                   total_space=report.total_space_json(tsc),
                   ambiguous_degrees=[[k, "total"] for k in ambiguous])


def _job_dualize(spec) -> dict:
    """T-dualize one triple."""
    tsc = _build_total(spec)
    if tsc.top < 3:
        raise JobError("max_degree: dualize needs total-space degree 3")
    flux = parse_class(spec.get("flux"), tsc.group(3), tsc.names(3), "flux")
    try:
        b = parse_class(spec.get("b"), tsc.group(2), tsc.names(2), "b")
        rep = dualize(Triple(tsc, b, flux))
    except BNotLiftableError as exc:
        return _report(spec, [FLAG_B_NOT_LIFTABLE], error=str(exc))
    return _report(
        spec, sorted(rep.flags),
        source=_triple_json(rep.source), dual=_triple_json(rep.dual),
        flux_ambiguity={
            "subgroup": report.group_json(rep.flux_ambiguity.domain),
            "inclusion": report.matrix_json(rep.flux_ambiguity.matrix),
        },
        cosets={
            "source": _coset_json(rep.source_coset),
            "target": _coset_json(rep.target_coset),
            "isomorphism": None if rep.coset_iso is None else
                report.hom_json(rep.coset_iso),
            "natural": rep.coset_iso_natural,
        },
        ambiguous_degrees=[list(x) for x in rep.ambiguous_degrees])


def _triple_json(t: Triple) -> dict:
    return {"euler": list(t.euler.coords),
            "table": report.total_space_json(t.total),
            "flux": list(t.flux.coords), "b": list(t.b.coords)}


def _coset_json(c) -> dict:
    out = {
        "subgroup_generator": list(c.subgroup_generator.coords),
        "representative": list(c.representative.coords),
        "quotient": report.group_json(c.quotient),
        "projection": report.matrix_json(c.projection.matrix),
        "coset": list(c.coset.coords),
    }
    if c.representatives is not None:
        out["coset_representatives"] = list(c.representatives)
    return out


def _job_coset_partition(spec) -> dict:
    """Partition H^2 of a total space into cosets."""
    tsc = _build_total(spec)
    if tsc.top < 2:
        raise JobError("max_degree: coset-partition needs total-space degree 2")
    gen = parse_class(spec.get("gen"), tsc.group(2), tsc.names(2), "gen")
    return _report(spec, [], h2=report.group_json(tsc.group(2)),
                   generators=list(tsc.names(2)),
                   partition=_coset_json(coset_partition(gen)))


def _pinned_and_computed(pinned, computed) -> dict:
    return {"reference": report.graded_json(pinned.groups, pinned.names),
            "computed": report.graded_json(computed.table.groups,
                                           computed.table.names)}


def _r2_tables() -> dict:
    return _pinned_and_computed(fixtures.r2_cohomology(),
                                classifying.r2_cohomology_computed())


def _r32_tables() -> dict:
    return {**_pinned_and_computed(fixtures.r32_cohomology(),
                                   classifying.r32_cohomology_computed()),
            "note": ("computed degree 3 has rank 2; the reference table "
                     "lists rank 1 there (see README, known discrepancy)")}


def _e32_tables() -> dict:
    ub = classifying.universal_bundle_tables()
    return {"e32": report.graded_json(
                [ub.e32.group(k) for k in range(4)], ub.e32.names),
            "e32_hat": report.graded_json(
                [ub.e32_hat.group(k) for k in range(4)], ub.e32_hat.names)}


def _homotopy_tables() -> dict:
    return {"r2": {str(i): report.group_json(
                fixtures.R2_HOMOTOPY.get(i, ZERO_GROUP)) for i in range(1, 5)},
            "r32": {str(i): report.group_json(
                fixtures.R32_HOMOTOPY.get(i, ZERO_GROUP)) for i in range(1, 5)},
            "r2_pi2_action": report.matrix_json(fixtures.R2_PI2_ACTION),
            "r32_pi2_action": report.matrix_json(fixtures.R32_PI2_ACTION)}


# The classifying-space tables by name: the choices of `tdual tables` and
# of a classifying-tables job's `space` field.
TABLES = {"R2": _r2_tables, "R32": _r32_tables, "E32": _e32_tables,
          "homotopy": _homotopy_tables}


def _job_tables(spec) -> dict:
    """Classifying-space tables."""
    which = spec.get("space")
    if not isinstance(which, str) or which not in TABLES:
        raise JobError(f"space: unknown table {which!r} "
                       f"(choose one of {', '.join(TABLES)})")
    return _report(spec, [], **TABLES[which]())


class Mode(NamedTuple):
    """A job mode: its subcommand, its handler (whose docstring is the
    subcommand's help) and its class fields with their command-line
    defaults.  A mode with class fields is about one bundle and also
    takes `base` and `max_degree`; the tables mode takes `space`."""
    command: str
    handler: Callable[[dict], dict]
    classes: dict
    strict: bool = False  # its reports can carry CONJECTURE

    @property
    def fields(self) -> tuple:
        """The fields a job of this mode may carry besides `mode`."""
        if not self.classes:
            return ("space",)
        return ("base", *self.classes, "max_degree")


MODES = {
    "cohomology": Mode("cohomology", _job_cohomology, {"euler": "0"}),
    "dualize": Mode("dualize", _job_dualize,
                    {"euler": "0", "flux": "0", "b": "0"}, strict=True),
    "coset-partition": Mode("coset-partition", _job_coset_partition,
                            {"euler": "0", "gen": "0"}),
    "classifying-tables": Mode("tables", _job_tables, {}),
}


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _add_output(p, strict: bool):
    p.add_argument("--format", choices=("text", "json"), default="text")
    if strict:
        p.add_argument("--strict", action="store_true",
                       help="exit 3 when a result relies on the unproved "
                            "coset-transport case")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdual",
        description="Exact T-duality of circle bundles with flux and B-class")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="Run a batch job file (JSON).")
    run.add_argument("jobfile")
    _add_output(run, strict=True)

    for name, mode in MODES.items():
        p = sub.add_parser(mode.command, help=mode.handler.__doc__)
        p.set_defaults(mode=name)
        if mode.classes:
            p.add_argument("--base", required=True)
            for field, default in mode.classes.items():
                p.add_argument(f"--{field}", default=default)
            p.add_argument("--max-degree", type=int, default=argparse.SUPPRESS)
        else:
            p.add_argument("space", choices=TABLES)
        _add_output(p, mode.strict)
    return parser


def _spec_from_args(args) -> dict:
    values = vars(args)
    return {field: values[field] for field in ("mode", *MODES[args.mode].fields)
            if field in values}


def _finish(docs, args, out) -> int:
    payload = docs[0] if len(docs) == 1 else {
        "schema_version": report.SCHEMA_VERSION, "reports": docs}
    out.write(report.emit(payload, args.format))
    flags = {flag for doc in docs for flag in doc["flags"]}
    if getattr(args, "strict", False) and FLAG_CONJECTURE in flags:
        return EXIT_STRICT_CONJECTURE
    if FLAG_B_NOT_LIFTABLE in flags:
        return EXIT_VALIDATION
    return EXIT_OK


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
