"""Per-layer tracing from outside the package.

`Tracer.install()` replaces each function named in LAYERS by a wrapper
that records a span (id, parent id, op id, name, start, end). A name is
patched in every tdual module that holds it, since gysin, tduality and
classifying bind kernel/cokernel/solve_hom by `from ... import`. Spans
stay in memory; self time is a span's duration minus the time its child
spans cover. A few counters are kept at the same boundaries.
"""

from __future__ import annotations

import gzip
import json
import sys
import time

from tdual import abelian, classifying, cli, gysin, report, spaces, tduality

# layer -> {metric name: (owner, attribute)}; the owner is a module or,
# for methods, a class.
LAYERS = {
    "abelian": {
        "snf": (abelian, "_snf_with_inverses"),
        "kernel": (abelian, "kernel"),
        "cokernel": (abelian, "cokernel"),
        "image": (abelian, "image"),
        "solve_hom": (abelian, "solve_hom"),
        "quotient_by": (abelian, "quotient_by"),
        "is_isomorphism": (abelian, "is_isomorphism"),
        "hom_inverse": (abelian, "hom_inverse"),
        "direct_sum": (abelian, "direct_sum"),
    },
    "spaces": {
        "cohomology_of": (spaces, "cohomology_of"),
        "cup_by": (spaces.GradedCohomology, "cup_by"),
        "sum_named": (spaces, "sum_named"),
    },
    "gysin": {
        "total_space_cohomology": (gysin, "total_space_cohomology"),
        "build_degree": (gysin.TotalSpaceCohomology, "_build_degree"),
    },
    "tduality": {
        "dualize": (tduality, "dualize"),
        "dual_flux": (tduality, "dual_flux"),
        "coset_partition": (tduality, "coset_partition"),
        "coset_isomorphism": (tduality, "_coset_isomorphism"),
    },
    "classifying": {
        "mapping_torus_cohomology": (classifying, "mapping_torus_cohomology"),
        "universal_bundle_tables": (classifying, "universal_bundle_tables"),
    },
    "report": {"emit_json": (report, "emit_json")},
    "cli": {
        "run_job": (cli, "run_job"),
        "build_total": (cli, "_build_total"),
        "parse_class": (cli, "parse_class"),
    },
}
SPAN_NAMES = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]
COUNTERS = {
    "abelian.snf.max_entry_bits": "bits",
    "abelian.snf.max_dim": "count",
    "abelian.snf.cells": "count",
    "abelian.snf.calls_per_op": "calls/op",
    "abelian.intmatrix.built": "count",
    "tduality.cosets_enumerated": "count",
    "tduality.snf_per_coset": "calls/coset",
    "report.bytes": "bytes",
}


def _max_bits(matrices):
    return max((abs(x).bit_length() for m in matrices
                for row in m.entries for x in row), default=0)


class Tracer:
    def __init__(self, record=False):
        self.record = record      # keep raw spans for write_spans
        self.snf_code = None      # code object of the unwrapped SNF
        self.spans = []
        self.op_id = -1
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.stack = []           # [span id, child time] per open span
        self.next_id = 0
        self.snf_bits = self.snf_dim = self.snf_cells = 0
        self.intmatrix_built = 0
        self.cosets = 0
        self.snf_in_cosets = 0
        self.coset_depth = 0
        self.report_bytes = 0

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        is_snf = name == "abelian.snf"
        is_coset = name == "tduality.coset_partition"
        is_emit = name == "report.emit_json"

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            span_id = tracer.next_id
            tracer.next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            if is_coset:
                tracer.coset_depth += 1
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - frame[1]
                if tracer.record:
                    tracer.spans.append((span_id, parent, tracer.op_id, name, start, end))
                if is_coset:
                    tracer.coset_depth -= 1
            if is_snf:
                m = args[0]
                tracer.snf_bits = max(tracer.snf_bits, _max_bits(out))
                tracer.snf_dim = max(tracer.snf_dim, m.rows, m.cols)
                tracer.snf_cells += m.rows * m.cols
                if tracer.coset_depth:
                    tracer.snf_in_cosets += 1
            elif is_coset and out.representatives is not None:
                tracer.cosets += len(out.representatives)
            elif is_emit:
                tracer.report_bytes += len(out)
            return out

        return wrapper

    def install(self):
        """Patch every target in each tdual module and class that holds it."""
        modules = [m for n, m in sys.modules.items()
                   if n == "tdual" or n.startswith("tdual.")]
        for layer, fns in LAYERS.items():
            for fn_name, (owner, attr) in fns.items():
                name = f"{layer}.{fn_name}"
                original = getattr(owner, attr)
                if name == "abelian.snf":
                    self.snf_code = original.__code__
                wrapped = self._wrap(name, original)
                setattr(owner, attr, wrapped)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
        post_init = abelian.IntMatrix.__post_init__

        def counted(matrix):
            self.intmatrix_built += 1
            post_init(matrix)

        abelian.IntMatrix.__post_init__ = counted

    # -- results -------------------------------------------------------------

    def metrics(self, ops_per_pass):
        """Totals of one pass over the inputs."""
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        snf_calls = self.calls["abelian.snf"]
        values = {
            "abelian.snf.max_entry_bits": self.snf_bits,
            "abelian.snf.max_dim": self.snf_dim,
            "abelian.snf.cells": self.snf_cells,
            "abelian.snf.calls_per_op": snf_calls / ops_per_pass,
            "abelian.intmatrix.built": self.intmatrix_built,
            "tduality.cosets_enumerated": self.cosets,
            "tduality.snf_per_coset":
                self.snf_in_cosets / self.cosets if self.cosets else 0.0,
            "report.bytes": self.report_bytes,
        }
        out.update({k: (v, COUNTERS[k]) for k, v in values.items()})
        return out

    def write_spans(self, path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def count_code_calls(code, fn):
    """Calls of `code` made while running fn(), seen by a profile hook.

    Independent of the wrappers, so a call that bypasses them shows.
    """
    seen = [0]

    def hook(frame, event, arg):
        if event == "call" and frame.f_code is code:
            seen[0] += 1

    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return seen[0]
