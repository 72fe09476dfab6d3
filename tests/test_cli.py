import io
import json
import sys

import pytest

from tdual import cli, report
from tdual.cli import (
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_STRICT_CONJECTURE,
    EXIT_VALIDATION,
    JobError,
    MODES,
    main,
    parse_class,
    run_job,
)
from tdual.abelian import FgGroup, HomError
from tdual.classifying import SelfTestError
from tdual.gysin import GysinError
from tdual.spaces import UnknownSpaceError
from tdual.tduality import ExactnessBugError
from tdual.report import emit_json

from .test_naming import CATALOG


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_parse_class_forms():
    g = FgGroup(2, (3,))
    names = ("u", "v", "t")
    assert parse_class("0", g, names, "x").is_zero()
    assert parse_class("1,2,1", g, names, "x").coords == (1, 2, 1)
    assert parse_class("2*u + v - t", g, names, "x").coords == (2, 1, 2)
    assert parse_class("3*t", g, names, "x").coords == (0, 0, 0)
    assert parse_class("-u + -2*v", g, names, "x").coords == (-1, -2, 0)
    assert parse_class("+u - 2*v", g, names, "x").coords == (1, -2, 0)
    with pytest.raises(JobError):
        parse_class("1,2", g, names, "x")
    with pytest.raises(JobError):
        parse_class("2*w", g, names, "x")
    named = ("vol.z", "p*(vol)", "t")
    assert parse_class("3 * vol.z", g, named, "x").coords == (3, 0, 0)
    assert parse_class("- 2 * p*(vol)", g, named, "x").coords == (0, -2, 0)


def test_parse_class_list_and_comma_string_agree():
    g = FgGroup(2, (3,))
    names = ("u", "v", "t")
    assert parse_class([2, 0, 1], g, names, "x") == parse_class("2,0,1", g, names, "x")
    messages = []
    for spec in ([1, 2], "1,2"):
        with pytest.raises(JobError) as err:
            parse_class(spec, g, names, "x")
        messages.append(str(err.value))
    assert messages == ["x: expected 3 coordinates, got 2"] * 2


def test_dualize_job_torus():
    doc = run_job({"mode": "dualize", "base": "T2", "euler": "0",
                   "flux": "3*vol.z"})
    assert doc["dual"]["euler"] == [3]
    assert doc["dual"]["table"]["2"]["group"] == {
        "rank": 2, "torsion": [3], "display": "Z^2 + Z/3"}
    assert doc["flags"] == ["CONJECTURE"]
    assert doc["cosets"]["source"]["quotient"]["display"] == "Z^2 + Z/3"


def test_cohomology_job_lens():
    doc = run_job({"mode": "cohomology", "base": "S2", "euler": "4"})
    assert doc["total_space"]["2"]["group"]["torsion"] == [4]
    assert doc["flags"] == []


def test_tables_job():
    doc = run_job({"mode": "classifying-tables", "space": "R32"})
    assert doc["reference"]["4"]["generators"] == ["a1^2", "a2^2", "x"]
    assert doc["computed"]["2"]["group"]["rank"] == 2
    doc2 = run_job({"mode": "classifying-tables", "space": "homotopy"})
    assert doc2["r32"]["3"]["display"] == "Z"


def test_coset_partition_job():
    doc = run_job({"mode": "coset-partition", "base": "S2", "euler": "5",
                   "gen": "0"})
    assert doc["partition"]["quotient"]["display"] == "Z/5"


def test_unknown_mode_and_space():
    with pytest.raises(JobError):
        run_job({"mode": "nonsense"})
    with pytest.raises(JobError):
        run_job({"mode": "cohomology", "base": "E8"})


def test_cli_dualize_roundtrip_and_determinism():
    argv = ["dualize", "--base", "T2", "--euler", "0", "--flux", "2*vol.z",
            "--format", "json"]
    code1, out1 = run_cli(argv)
    code2, out2 = run_cli(argv)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2  # byte-identical for identical input
    doc = json.loads(out1)
    assert emit_json(doc) == out1  # parse and re-emit round trip
    assert doc["schema_version"] == 1


def test_cli_strict_mode_exit_code():
    code, _ = run_cli(["dualize", "--base", "RP2", "--euler", "0",
                       "--flux", "a.z", "--strict", "--format", "json"])
    assert code == EXIT_STRICT_CONJECTURE
    code2, _ = run_cli(["dualize", "--base", "CP2", "--euler", "0",
                        "--flux", "a.z", "--strict", "--format", "json"])
    assert code2 == EXIT_OK


def test_cli_b_not_liftable_exit_code():
    code, out = run_cli(["dualize", "--base", "T2", "--euler", "0",
                         "--flux", "2*vol.z", "--b", "a.z",
                         "--format", "json"])
    assert code == EXIT_VALIDATION
    doc = json.loads(out)
    assert doc["flags"] == ["B-NOT-LIFTABLE"]


def test_cli_validation_error_exit_code(tmp_path):
    code, _ = run_cli(["cohomology", "--base", "nowhere"])
    assert code == EXIT_VALIDATION


# Each command against the job a job file would carry for it, so the
# command-line defaults ("euler": "0", ...) are part of what is compared.
@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv, spec", [
    (["cohomology", "--base", "S2", "--euler", "4", "--max-degree", "5"],
     {"mode": "cohomology", "base": "S2", "euler": "4", "max_degree": 5}),
    (["dualize", "--base", "T2", "--flux", "3*vol.z", "--max-degree", "3"],
     {"mode": "dualize", "base": "T2", "euler": "0", "flux": "3*vol.z",
      "b": "0", "max_degree": 3}),
    (["coset-partition", "--base", "S2", "--euler", "5", "--max-degree", "4"],
     {"mode": "coset-partition", "base": "S2", "euler": "5", "gen": "0",
      "max_degree": 4}),
    (["tables", "E32"], {"mode": "classifying-tables", "space": "E32"}),
], ids=lambda value: value[0] if isinstance(value, list) else None)
def test_command_reports_what_its_job_reports(argv, spec, fmt):
    code, out = run_cli(argv + ["--format", fmt])
    assert code == EXIT_OK
    assert out == report.emit(run_job(spec), fmt)


def test_max_degree_zero_runs_like_degree_one():
    # the Euler class is read off H^2 of the base whatever the top degree;
    # the command fills in the class defaults its job would carry
    for base in CATALOG:
        spec = {"mode": "cohomology", "base": base, **MODES["cohomology"].classes,
                "max_degree": 0}
        doc = run_job(spec)
        one = run_job({**spec, "max_degree": 1})
        assert doc["flags"] == one["flags"] == [], base
        assert doc["base"] == one["base"], base
        assert doc["total_space"] == {"0": one["total_space"]["0"]}, base
        code, out = run_cli(["cohomology", "--base", base,
                             "--max-degree", "0", "--format", "json"])
        assert code == EXIT_OK and out == report.emit(doc, "json"), base


def test_max_degree_zero_dualize_exits_2(capsys):
    with pytest.raises(JobError,
                       match="^max_degree: dualize needs total-space degree 3$"):
        run_job({"mode": "dualize", "base": "S2", "max_degree": 0})
    code, out = run_cli(["dualize", "--base", "S2", "--max-degree", "0"])
    assert code == EXIT_VALIDATION and out == ""
    assert capsys.readouterr().err == (
        "error: max_degree: dualize needs total-space degree 3\n")


@pytest.mark.parametrize("top", [0, 1])
def test_coset_partition_below_degree_2_exits_2(capsys, top):
    # H^2 of the total space lies above the table: S2 x S1 has H^2 = Z,
    # which a degree-1 table would report as 0
    message = "max_degree: coset-partition needs total-space degree 2"
    with pytest.raises(JobError, match=f"^{message}$"):
        run_job({"mode": "coset-partition", "base": "S2", "max_degree": top})
    code, out = run_cli(["coset-partition", "--base", "S2",
                         "--max-degree", str(top)])
    assert code == EXIT_VALIDATION and out == ""
    assert capsys.readouterr().err == f"error: {message}\n"
    assert run_job({"mode": "coset-partition", "base": "S2",
                    "max_degree": 2})["h2"]["display"] == "Z"


@pytest.mark.parametrize("argv", [
    ["run", "jobs.json", "--max-degree", "1"],
    ["tables", "R2", "--max-degree", "3"],
    ["cohomology", "--base", "S2", "--strict"],
    ["coset-partition", "--base", "S2", "--strict"],
    ["tables", "R2", "--strict"],
], ids=" ".join)
def test_flag_that_changes_nothing_is_refused(capsys, argv):
    with pytest.raises(SystemExit) as exited:
        run_cli(argv)
    assert exited.value.code == EXIT_VALIDATION
    assert "unrecognized arguments" in capsys.readouterr().err


DUALIZE_T2 = ["dualize", "--base", "T2", "--euler", "0", "--flux", "3*vol.z"]


def _raising(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


# The patches replace names cli itself calls: total spaces are shared
# within a process, so a fault planted deeper in gysin would be skipped
# for a bundle an earlier test already solved.
@pytest.mark.parametrize("error", [HomError, GysinError, ExactnessBugError,
                                   SelfTestError])
def test_internal_errors_exit_4_with_one_line(monkeypatch, capsys, error):
    monkeypatch.setattr(cli, "dualize", _raising(error("check that failed")))
    code, out = run_cli(DUALIZE_T2)
    assert code == EXIT_INTERNAL
    assert out == ""
    assert capsys.readouterr().err == (
        f"internal error: {error.__name__}: check that failed\n")


@pytest.mark.parametrize("error", [JobError, UnknownSpaceError, ValueError])
def test_input_errors_keep_exit_2(monkeypatch, capsys, error):
    monkeypatch.setattr(cli, "dualize", _raising(error("bad input")))
    code, _ = run_cli(DUALIZE_T2)
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: bad input\n"


def test_unreadable_jobfile_exits_2_with_one_line(tmp_path, capsys):
    not_json = tmp_path / "jobs.json"
    not_json.write_text("{jobs")
    for path in (tmp_path / "missing.json", tmp_path, not_json):
        code, out = run_cli(["run", str(path)])
        assert code == EXIT_VALIDATION and out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: jobfile: ") and err.count("\n") == 1


@pytest.mark.parametrize("batch", [{"jobs": [1]},
                                   [{"mode": "cohomology", "base": "S2"}, "S2"]])
def test_job_that_is_not_an_object_exits_2(tmp_path, capsys, batch):
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps(batch))
    code, out = run_cli(["run", str(path)])
    assert code == EXIT_VALIDATION and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: jobfile: ") and err.count("\n") == 1


@pytest.mark.parametrize("field, job", [
    ("flux", {"mode": "dualize", "base": "T2", "euler": "0", "flux": [1.5]}),
    ("euler", {"mode": "cohomology", "base": "S2", "euler": [True]}),
    ("max_degree", {"mode": "cohomology", "base": "S2", "max_degree": 3.7}),
    ("max_degree", {"mode": "cohomology", "base": "S2", "max_degree": [3]}),
    ("gen", {"mode": "coset-partition", "base": "S2", "euler": "0",
             "gen": [[1]]}),
    ("flux", {"mode": "dualize", "base": "T2", "euler": "0", "flux": 1.5}),
    ("flux", {"mode": "dualize", "base": "T2", "euler": "0", "flux": True}),
    ("euler", {"mode": "cohomology", "base": "S2", "euler": "--3"}),
    ("euler", {"mode": "cohomology", "base": "S2", "euler": "+-2"}),
    ("euler", {"mode": "cohomology", "base": "S2", "euler": "\u00b2*vol"}),
    ("euler", {"mode": "cohomology", "base": "S2", "euler": "\u0663"}),
    ("flux", {"mode": "dualize", "base": "T2", "euler": "0", "flux": "1,"}),
    ("flux", {"mode": "dualize", "base": "T2", "euler": "0", "flux": "1,,0"}),
    ("flux", {"mode": "dualize", "base": "T2", "euler": "0", "flux": ",1"}),
    ("flux", {"mode": "dualize", "base": "T2", "euler": "0", "flux": "1, x"}),
    ("flux", {"mode": "dualize", "base": "T2", "euler": "0",
              "flux": "p*(vol),1"}),
    # an integer out of range is refused like a non-integer
    ("max_degree", {"mode": "cohomology", "base": "S2", "max_degree": 12}),
    ("max_degree", {"mode": "cohomology", "base": "S2", "max_degree": -1}),
])
def test_non_integer_job_field_exits_2(tmp_path, capsys, field, job):
    _assert_job_refused(tmp_path, capsys, field, job)


@pytest.mark.parametrize("field, job", [
    ("fluxx", {"mode": "dualize", "base": "T2", "fluxx": "3*vol.z"}),
    ("gen", {"mode": "cohomology", "base": "S2", "gen": "0"}),
    ("flux", {"mode": "cohomology", "base": "S2", "flux": "3*vol.z"}),
    ("base", {"mode": "classifying-tables", "space": "R2", "base": "S2"}),
    ("mode", {"mode": ["dualize"], "base": "T2"}),
    ("space", {"mode": "classifying-tables", "space": "r3,2"}),
    ("space", {"mode": "classifying-tables", "space": "r_32"}),
    ("space", {"mode": "classifying-tables", "space": "e_32"}),
    ("space", {"mode": "classifying-tables", "space": "r32"}),
    ("space", {"mode": "classifying-tables", "space": ["R2"]}),
    # and the one field a bundle mode cannot do without
    ("base", {"mode": "cohomology", "euler": "0"}),
])
def test_field_outside_the_mode_exits_2(tmp_path, capsys, field, job):
    _assert_job_refused(tmp_path, capsys, field, job)


@pytest.mark.parametrize("euler", ["vol + + vol", "3*", "2*vol --3*vol"])
def test_malformed_expression_exits_2(tmp_path, capsys, euler):
    job = {"mode": "cohomology", "base": "S2", "euler": euler}
    err = _assert_job_refused(tmp_path, capsys, "euler", job)
    assert f"malformed expression {euler!r}" in err


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this interpreter converts integers of any length")
@pytest.mark.parametrize("euler", ["9" * 5000, "9" * 5000 + "*vol"])
def test_integer_past_the_digit_limit_exits_2(tmp_path, capsys, euler):
    job = {"mode": "cohomology", "base": "S2", "euler": euler}
    err = _assert_job_refused(tmp_path, capsys, "euler", job)
    assert f"the limit of {sys.get_int_max_str_digits()} digits" in err


def _assert_job_refused(tmp_path, capsys, field, job):
    """Run job from a job file, check it exits 2 with one error line that
    names field, and return that line."""
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps({"jobs": [job]}))
    code, out = run_cli(["run", str(path)])
    assert code == EXIT_VALIDATION and out == ""
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: ") and err.count("\n") == 1
    assert "unknown generator" not in err
    return err


def test_base_must_be_a_name():
    with pytest.raises(JobError, match="^base: "):
        run_job({"mode": "cohomology", "base": {"name": "S2"}})


def test_jobfile_batch_order(tmp_path):
    jobs = {"schema_version": 1, "jobs": [
        {"mode": "cohomology", "base": "S2", "euler": "2"},
        {"mode": "cohomology", "base": "S2", "euler": "3"},
    ]}
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps(jobs))
    code, out = run_cli(["run", str(path), "--format", "json"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert [r["input"]["euler"] for r in doc["reports"]] == ["2", "3"]
    assert doc["reports"][0]["total_space"]["2"]["group"]["torsion"] == [2]


def test_text_format_is_stable():
    code, out1 = run_cli(["tables", "R2", "--format", "text"])
    _, out2 = run_cli(["tables", "R2", "--format", "text"])
    assert code == EXIT_OK and out1 == out2
    assert "reference" in out1


COSET_TEXT = """\
flags: []
generators: ["p*(vol)"]
h2:
  display: "Z/3"
  rank: 0
  torsion: [3]
input:
  base: "S2"
  euler: "3"
  gen: "0"
  max_degree: 2
  mode: "coset-partition"
mode: "coset-partition"
partition:
  coset: [0]
  coset_representatives:
    - [0]
    - [1]
    - [2]
  projection:
    cols: 1
    entries:
      - [1]
    rows: 1
  quotient:
    display: "Z/3"
    rank: 0
    torsion: [3]
  representative: [0]
  subgroup_generator: [0]
schema_version: 1
"""


def test_text_of_one_report_is_pinned():
    code, out = run_cli(["coset-partition", "--base", "S2", "--euler", "3",
                         "--max-degree", "2", "--format", "text"])
    assert code == EXIT_OK and out == COSET_TEXT


def test_text_run_marks_each_report(tmp_path):
    jobs = [{"mode": "cohomology", "base": "S2", "euler": "2"},
            {"mode": "coset-partition", "base": "S2", "euler": "3",
             "max_degree": 2}]
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps(jobs))
    code, out = run_cli(["run", str(path), "--format", "text"])
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "reports:" and lines[-1] == "schema_version: 1"
    items = [i for i, line in enumerate(lines) if line.startswith("  - ")]
    assert len(items) == 2
    # each item is its job's own text, marked "- " and indented under it
    for start, job in zip(items, jobs):
        single = report.emit_text(run_job(job)).splitlines()
        assert lines[start:start + len(single)] == (
            ["  - " + single[0]] + ["    " + line for line in single[1:]])


def test_empty_flags_serialize_as_empty_list():
    doc = run_job({"mode": "cohomology", "base": "S2", "euler": "1"})
    assert doc["flags"] == []
    assert '"flags": []' in emit_json(doc)


def test_group_schema_round_trips():
    from tdual.report import group_json

    def group_from_json(d):
        return FgGroup(d["rank"], tuple(d["torsion"]))

    for g in (FgGroup(0), FgGroup(2), FgGroup(1, (3,)), FgGroup(2, (2, 4))):
        assert group_from_json(group_json(g)) == g
    doc = run_job({"mode": "dualize", "base": "T2", "euler": "0",
                   "flux": "4*vol.z"})
    h2 = doc["dual"]["table"]["2"]["group"]
    assert group_from_json(h2) == FgGroup(2, (4,))
