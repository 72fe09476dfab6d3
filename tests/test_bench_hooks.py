"""The benchmark's tracer patches functions of tdual by name.

bench/tracing.py lists them in LAYERS as (owner, attribute) pairs, wraps
IntMatrix.__post_init__ besides, and measures the matrices the Smith form
returns; a renamed target would only show as a crash of a traced
benchmark run, so it is checked here.
"""

from pathlib import Path

from tdual.abelian import IntMatrix

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_traced_target_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    targets = [pair for fns in tracing.LAYERS.values() for pair in fns.values()]
    assert targets
    for owner, attr in targets:
        assert callable(getattr(owner, attr, None)), (owner.__name__, attr)
    assert callable(getattr(IntMatrix, "__post_init__", None))

    owner, attr = tracing.LAYERS["abelian"]["snf"]
    out = getattr(owner, attr)(IntMatrix.from_rows([[2, 4], [6, 8]]))
    assert all(isinstance(m, IntMatrix) for m in out)
    assert tracing._max_bits(out) > 0
