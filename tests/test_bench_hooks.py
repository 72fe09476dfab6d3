"""The benchmark's tracer patches functions of tdual by name.

bench/tracing.py lists them in LAYERS as (owner, attribute) pairs, wraps
IntMatrix.__post_init__ besides, and measures the matrices the Smith form
returns; a renamed target would only show as a crash of a traced
benchmark run, so it is checked here.  The tracer also relies on every
module calling the one shared total_space_cohomology, and on each
degree being asked for by TotalSpaceCohomology._build_degree, once per
solved total space.  The answer comes from the split_degree memo, so
gysin.build_degree counts degree requests, memo hits included: a total
space the total_space_cohomology memo already holds asks for nothing,
but a new one whose degrees an earlier one built counts them again.  It counts
enumerated cosets as len(coset_partition(...).representatives) and
report bytes as len(report.emit_json(doc)).  The coverage jobs count
Smith forms by the code object of abelian.smith_normal_form, wrapped
under its alias _snf_with_inverses, so it must stay a plain function.
Two traced functions, image and hom_inverse, have no caller left in src/
and stay only for the tracer.
"""

import ast
import sys
import types
from pathlib import Path

from tdual import abelian, classifying, cli, gysin, report, tduality
from tdual.abelian import IntMatrix
from tdual.spaces import cohomology_of, parse_space

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


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


def test_the_smith_form_is_a_plain_function():
    """bench/tracing.py reads original.__code__ of the SNF; a cache such as
    functools.lru_cache around it has none, and every traced run would
    crash before it measured anything.

    The tracer wraps the old name _snf_with_inverses, while snf-dense and
    cokernel_presentation call smith_normal_form.  The wrapper reaches
    those calls only because it replaces every module attribute bound to
    the one function, and CI compares the wrapper's Smith-form counts with
    a profile hook's.  A second function under the old name would leave
    the wrapper counting nothing."""
    snf = abelian.smith_normal_form
    assert abelian._snf_with_inverses is snf
    assert isinstance(snf, types.FunctionType)
    assert isinstance(snf.__code__, types.CodeType)


def test_every_module_binds_the_shared_total_space_cohomology():
    holders = {name for name, mod in sys.modules.items()
               if (name == "tdual" or name.startswith("tdual."))
               and hasattr(mod, "total_space_cohomology")}
    assert {"tdual", cli.__name__, tduality.__name__,
            classifying.__name__} <= holders
    for name in holders:
        assert sys.modules[name].total_space_cohomology \
            is gysin.total_space_cohomology, name


def test_build_degree_is_the_only_per_degree_builder(monkeypatch):
    """Every degree request goes through _build_degree, which the tracer
    counts as gysin.build_degree: requests, split_degree memo hits
    included, not GysinDegree builds."""
    built, made = [], []
    build, degree = gysin.TotalSpaceCohomology._build_degree, gysin.GysinDegree

    def counted_build(self, k):
        built.append(k)
        return build(self, k)

    def counted_degree(**fields):
        made.append(fields["group"])
        return degree(**fields)

    monkeypatch.setattr(gysin.TotalSpaceCohomology, "_build_degree",
                        counted_build)
    monkeypatch.setattr(gysin, "GysinDegree", counted_degree)
    base = cohomology_of(parse_space("RP6"), 6)
    bundle = gysin.CircleBundle(base, base.group(2).generator(0))
    gysin.total_space_cohomology.cache_clear()
    tsc = gysin.total_space_cohomology(bundle)
    assert built == list(range(tsc.top + 1)) and len(made) == len(built)
    assert gysin.total_space_cohomology(bundle) is tsc
    assert len(built) == len(made) == tsc.top + 1
    # a lower top asks for degrees the split_degree memo holds: each
    # request counts, but no GysinDegree is made again
    lower = gysin.total_space_cohomology(bundle, 3)
    assert built[tsc.top + 1:] == [0, 1, 2, 3] and len(made) == tsc.top + 1
    assert all(a is b for a, b in zip(lower.degrees, tsc.degrees))


def test_counted_values_keep_their_types():
    base = cohomology_of(parse_space("S2"), 4)
    tsc = gysin.total_space_cohomology(
        gysin.CircleBundle(base, base.group(2).zero_element()), 3)
    part = tduality.coset_partition(tsc.named_element(2, "p*(vol)").scale(300))
    assert len(part.representatives) == part.quotient.order() == 300
    doc = cli.run_job({"mode": "coset-partition", "base": "S2",
                       "euler": "0", "gen": "300*p*(vol)"})
    assert isinstance(report.emit_json(doc), str)


def _references_outside_own_def(tree) -> set:
    """Names referenced (as a name, an attribute or an imported name)
    anywhere except inside the def or class of that same name."""
    found = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            enclosing = enclosing | {node.name}
        names = ()
        if isinstance(node, ast.Name):
            names = (node.id,)
        elif isinstance(node, ast.Attribute):
            names = (node.attr,)
        elif isinstance(node, ast.ImportFrom):
            names = tuple(alias.name for alias in node.names)
        found.update(n for n in names if n not in enclosing)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return found


def test_traced_functions_without_a_caller_in_src(monkeypatch):
    """A traced function that src/ no longer calls still has to exist for
    bench/tracing.py, and its metrics read 0; the list of such hooks is
    pinned, so that a change that removes a last caller says so."""
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    used = set()
    for path in (ROOT / "src" / "tdual").glob("*.py"):
        if path.name != "__init__.py":
            used |= _references_outside_own_def(
                ast.parse(path.read_text(), str(path)))
    attrs = {attr for fns in tracing.LAYERS.values() for _, attr in fns.values()}
    assert attrs - used == {"image", "hom_inverse"}
