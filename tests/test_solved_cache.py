"""The shared total spaces behind total_space_cohomology.

Within one process each distinct (base, Euler class, top degree) is
solved once and shared, and at most abelian.MEMO_SIZE are kept.  Sharing
must not show in any report: the bytes of a job list are the same cold,
warm, in reverse order and after the cache is cleared.
"""

import pytest

from tdual.abelian import MEMO_SIZE, clear_memos
from tdual.cli import run_job
from tdual.gysin import (
    CircleBundle,
    GysinError,
    total_space_cohomology,
)
from tdual.report import emit_json
from tdual.spaces import cohomology_of, parse_space

from .test_naming import CATALOG


def _first(names, scale=1):
    return f"{scale}*{names[0]}" if names else "0"


def _mixed_jobs():
    """Every catalog base with Euler class 0 and, where H^2 is nonzero,
    its first generator: one dualize and one coset-partition job each."""
    jobs = []
    for base in CATALOG:
        h2 = run_job({"mode": "cohomology", "base": base})["base"]["2"]
        eulers = ["0"] + ([_first(h2["generators"])] if h2["generators"] else [])
        for euler in eulers:
            table = run_job({"mode": "cohomology", "base": base,
                             "euler": euler})["total_space"]
            flux = _first(table["3"]["generators"]) if "3" in table else "0"
            jobs.append({"mode": "dualize", "base": base, "euler": euler,
                         "flux": flux})
            jobs.append({"mode": "coset-partition", "base": base,
                         "euler": euler,
                         "gen": _first(table["2"]["generators"], 2)})
    return jobs


def _emit(jobs):
    return [emit_json(run_job(dict(job))) for job in jobs]


def test_reports_do_not_depend_on_what_the_cache_holds():
    jobs = _mixed_jobs()
    assert len({(j["base"], j["euler"]) for j in jobs}) > MEMO_SIZE
    clear_memos()
    cold = _emit(jobs)
    assert all('"error"' not in doc for doc in cold)
    # each job right after itself, so every bundle it needs is cached
    warm = [_emit([job, job])[1] for job in jobs]
    backwards = _emit(jobs[::-1])[::-1]
    clear_memos()
    cleared = _emit(jobs)
    assert warm == cold
    assert backwards == cold
    assert cleared == cold


def _bundle(name, euler, max_degree=4):
    base = cohomology_of(parse_space(name), max_degree)
    return CircleBundle(base, base.group(2).element([euler]))


def test_equal_bundles_share_one_value():
    first = _bundle("T2", 2)
    second = CircleBundle(first.base._replace(), first.euler)
    assert first.base is not second.base and first == second
    tsc = total_space_cohomology(first, 3)
    assert total_space_cohomology(second, 3) is tsc
    with pytest.raises(TypeError):      # positional only: one key per space
        total_space_cohomology(second, top=3)
    assert total_space_cohomology(second, 2) is not tsc
    assert total_space_cohomology(_bundle("T2", 3), 3) is not tsc


def test_shared_value_is_immutable():
    tsc = total_space_cohomology(_bundle("S2", 4), 3)
    assert isinstance(tsc.degrees, tuple)
    with pytest.raises(AttributeError):
        tsc.degrees[2].group = tsc.degrees[3].group


def test_cache_stays_within_its_bound():
    assert total_space_cohomology.cache_info().maxsize == MEMO_SIZE
    clear_memos()
    for n in range(MEMO_SIZE + 5):
        total_space_cohomology(_bundle("S2", n), 3)
        assert total_space_cohomology.cache_info().currsize <= MEMO_SIZE
    assert total_space_cohomology.cache_info().currsize == MEMO_SIZE


def test_failed_build_is_not_kept():
    clear_memos()
    bundle = _bundle("S2", 1, max_degree=3)
    for _ in range(2):                    # raises each time, never cached
        with pytest.raises(GysinError):
            total_space_cohomology(bundle, 3)     # needs degree-4 data
        assert total_space_cohomology.cache_info().currsize == 0
    assert total_space_cohomology(bundle, 2).top == 2
    assert total_space_cohomology.cache_info().currsize == 1
