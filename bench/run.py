"""tdual benchmark: one closed-loop client running one workload.

    python3 bench/run.py --workload batch-mix --seed 1 --seconds 15 --trace 0

Runs from the root of a checkout and benchmarks the tdual in its src/.
The inputs for a (workload, seed) are generated once and frozen under
.bench_build/; for the seeds in bench/digests.json the frozen file must
have the recorded sha256. This process first makes one untimed pass over
the inputs that checks every output. Every timed pass then runs in a
fresh child interpreter, the way one `tdual run` works through a job
file, so whatever tdual caches helps only within that pass. Passes
repeat until they have taken --seconds of wall time and there are at
least MIN_PASSES of them; each must return exactly the checked outputs.
Each op's latency is its best over the passes, scaled to reference
speed (see `slowdown`).

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
from passes with spans around each layer's public functions. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "tdual-bench"
INPUT_VERSION = 1          # bump when a generator changes its output
MIN_PASSES = 4
SETUP_PER_PASS = 2         # set-up samples, spread over the run
GEN_TIMEOUT_S = 150
CHILD_TIMEOUT_S = 60
# Time of the reference task on an unloaded 2.0 GHz Xeon vCPU (Python 3.11).
REFERENCE_S = 40e-6
# ROADMAP jobs with known SNF counts on the seed commit (62, 119, 535).
COVERAGE_JOBS = {
    "coverage.T2_flux3.snf_calls": {"mode": "dualize", "base": "T2",
                                    "euler": "0", "flux": "3*vol.z"},
    "coverage.RP7_flux_a.snf_calls": {"mode": "dualize", "base": "RP7",
                                      "euler": "0", "flux": "a.z"},
    "coverage.S2_gen512.snf_calls": {"mode": "coset-partition", "base": "S2",
                                     "euler": "0", "gen": "512"},
}


def _import_tdual():
    """Import the checkout's tdual, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import tdual
    if Path(tdual.__file__).resolve().parent != SRC / "tdual":
        raise ImportError(f"tdual resolved to {tdual.__file__}, not {SRC}")


def _input_path(workload, seed):
    return WORK / "inputs" / f"{workload}-seed{seed}-v{INPUT_VERSION}.json"


def _reference_task():
    """Fixed interpreter work shaped like SNF row operations on an 8x8."""
    a = [[(i * 7 + j) % 19 - 9 for j in range(8)] for i in range(8)]
    for k in range(7):
        for i in range(k + 1, 8):
            q = a[i][k] // (a[k][k] or 1)
            a[i] = [x - q * y for x, y in zip(a[i], a[k])]


def slowdown(repeats=3):
    """How many times slower than REFERENCE_S this process runs right now.

    A shared host can switch between speeds for seconds at a time (1.6x
    apart on a shared 2.0 GHz Xeon vCPU); dividing each measured time by
    the slowdown timed just before it keeps that out of the metrics.
    """
    best = float("inf")
    for _ in range(repeats):
        t = time.perf_counter()
        _reference_task()
        best = min(best, time.perf_counter() - t)
    return best / REFERENCE_S


def _child(*args):
    """Run this script in a fresh interpreter; its last stdout line as JSON."""
    done = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          check=True, timeout=CHILD_TIMEOUT_S,
                          capture_output=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def ensure_inputs(workload, seed):
    """Freeze the seed's inputs to a file, generating them in a child."""
    path = _input_path(workload, seed)
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        subprocess.run([sys.executable, str(HERE / "run.py"), "--child", "generate",
                        "--workload", workload, "--seed", str(seed),
                        "--out", str(tmp)], check=True, timeout=GEN_TIMEOUT_S)
        tmp.replace(path)
    return path


def file_digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def recorded_digest(kind, workload, seed):
    """The digest bench/digests.json records for a default seed, or None."""
    with open(HERE / "digests.json") as fh:
        return json.load(fh)[kind].get(workload, {}).get(str(seed))


def _load_ops(workload, seed):
    import workloads
    with open(_input_path(workload, seed)) as fh:
        return workloads.LOADERS[workload](json.load(fh))


def fingerprint(out):
    """sha256 of an op's output: a report's bytes, or the pickled result."""
    data = out.encode() if isinstance(out, str) else pickle.dumps(out, protocol=4)
    return hashlib.sha256(data).hexdigest()


def call(op):
    """(wall seconds, output, fingerprint, failure message or None).

    Only op.run() is timed; an op that raises, or whose output cannot be
    fingerprinted, is a failed op.
    """
    t0 = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:
        return time.perf_counter() - t0, None, None, f"raised {exc!r}"
    wall = time.perf_counter() - t0
    try:
        return wall, out, fingerprint(out), None
    except Exception as exc:
        return wall, out, None, f"output has no fingerprint: {exc!r}"


# -- child processes ---------------------------------------------------------

def _setup_child(workload, seed):
    """Set-up time of a fresh interpreter: import tdual with its CLI, then
    load the frozen inputs into call arguments. The benchmark's own module
    import is not counted."""
    speed = slowdown(5)
    t0 = time.perf_counter()
    _import_tdual()
    import tdual.cli  # noqa: F401  (what the `tdual` command imports)
    t1 = time.perf_counter()
    sys.path.insert(0, str(HERE))
    import workloads
    t2 = time.perf_counter()
    with open(_input_path(workload, seed)) as fh:
        workloads.LOADERS[workload](json.load(fh))
    return {"setup_s": ((t1 - t0) + (time.perf_counter() - t2)) / speed}


def _pass_child(workload, seed, traced, spans):
    """One timed pass over the ops in this fresh process."""
    ops = _load_ops(workload, seed)
    tracer = None
    if traced:
        from tracing import Tracer
        tracer = Tracer(record=bool(spans))
        tracer.install()
    lat, prints, failures = [], [], []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        speed = slowdown()
        wall, _, fp, failure = call(op)
        lat.append(wall / speed)
        prints.append(fp)
        if failure:
            failures.append([i, failure])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    doc = {"lat": lat, "prints": prints, "failures": failures, "rss_mb": rss_mb}
    if tracer is not None:
        doc["layers"] = tracer.metrics(len(ops))
        if spans:
            tracer.write_spans(spans)
    return doc


def _coverage_child(job):
    """SNF calls of one ROADMAP job, seen by the wrappers and by a hook."""
    from tracing import Tracer, count_code_calls
    from tdual import cli
    tracer = Tracer()
    tracer.install()
    seen = count_code_calls(tracer.snf_code,
                            lambda: cli.run_job(dict(COVERAGE_JOBS[job])))
    return {"wrapped": tracer.calls["abelian.snf"], "hook": seen}


# -- the measuring process ---------------------------------------------------

class Runner:
    """Checks one untimed pass here, then times passes in fresh children."""

    def __init__(self, workload, seed, ops):
        self.workload = workload
        self.seed = seed
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.prints = [None] * len(ops)
        self.digest = hashlib.sha256()   # of the checked pass's reports

    def _fail(self, i, msg):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{self.ops[i].label}: {msg}")

    def check_pass(self, reporting):
        for i, op in enumerate(self.ops):
            self.attempted += 1
            _, out, fp, failure = call(op)
            if failure:
                self._fail(i, failure)
                continue
            self.prints[i] = fp
            if reporting:
                self.digest.update(out.encode())
            try:
                msg = op.check(out)
            except Exception as exc:
                msg = f"check raised {exc!r}"
            if msg:
                self._fail(i, msg)

    def timed_pass(self, traced=False, spans=None):
        """One pass in a child; None if the child did not finish."""
        args = ["--child", "pass", "--workload", self.workload,
                "--seed", str(self.seed)]
        if traced:
            args.append("--traced")
        if spans:
            args += ["--spans", str(spans)]
        self.attempted += len(self.ops)
        try:
            doc = _child(*args)
        except (subprocess.SubprocessError, ValueError, IndexError) as exc:
            self.failed += len(self.ops)
            self.errors.append(f"timed pass did not finish: {exc}")
            return None
        failures = dict(doc["failures"])
        for i, fp in enumerate(doc["prints"]):
            if i in failures:
                self._fail(i, failures[i])
            elif fp != self.prints[i]:
                self._fail(i, "output differs from the checked pass")
        return doc


def latency_metrics(passes):
    """Each op's latency is its best over the passes, which drops what the
    scaling to reference speed leaves of a host's slow stretches;
    throughput and deciles are taken over those per-op latencies."""
    per_op = [min(ts) for ts in zip(*(p["lat"] for p in passes))]
    deciles = statistics.quantiles(per_op, n=10)
    return {
        "ops_per_s": (len(per_op) / sum(per_op), "1/s"),
        "op_p50_ms": (deciles[4] * 1e3, "ms"),
        "op_p90_ms": (deciles[8] * 1e3, "ms"),
    }


def _measured(args, runner):
    """Timed passes with set-up samples between them, until --seconds."""
    setup_args = ["--child", "setup", "--workload", args.workload,
                  "--seed", str(args.seed)]
    _child(*setup_args)  # leaves bytecode caches warm
    passes, setups, spent = [], [], 0.0
    while len(passes) < MIN_PASSES or spent < args.seconds:
        t = time.perf_counter()
        doc = runner.timed_pass()
        spent += time.perf_counter() - t
        if doc is None:
            return None
        passes.append(doc)
        setups += [_child(*setup_args)["setup_s"] for _ in range(SETUP_PER_PASS)]
    metrics = latency_metrics(passes)
    metrics["setup_s"] = (statistics.median(setups), "s")
    metrics["peak_rss_mb"] = (statistics.median(p["rss_mb"] for p in passes), "MB")
    print(f"  timed passes {len(passes)}, each in a fresh interpreter")
    return metrics


def _traced(args, runner):
    """The coverage jobs, then untraced and traced passes in turn."""
    correct = True
    coverage = {}
    for name in COVERAGE_JOBS:
        seen = _child("--child", "coverage", "--job", name)
        coverage[name] = (seen["wrapped"], "count")
        if seen["wrapped"] != seen["hook"]:
            print(f"  FAILED {name}: wrappers saw {seen['wrapped']} "
                  f"SNF calls, the profile hook {seen['hook']}")
            correct = False
    WORK.mkdir(parents=True, exist_ok=True)
    spans = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    untraced, traced, spent = [], [], 0.0
    while not traced or spent < args.seconds:
        t = time.perf_counter()
        plain = runner.timed_pass()
        doc = runner.timed_pass(traced=True, spans=None if traced else spans)
        spent += time.perf_counter() - t
        if plain is None or doc is None:
            return None, False
        untraced.append(sum(plain["lat"]))
        traced.append(doc)
    names = list(traced[0]["layers"])
    metrics = {n: (statistics.median(d["layers"][n][0] for d in traced),
                   traced[0]["layers"][n][1]) for n in names}
    overhead = statistics.median(sum(d["lat"]) for d in traced) / statistics.median(untraced)
    metrics["trace.overhead"] = (overhead, "x")
    metrics.update(coverage)
    print(f"  traced passes {len(traced)}, ops per pass {len(runner.ops)}; "
          f"spans of the first traced pass: {spans}")
    return metrics, correct


def _result(correct, attempted, failed, metrics):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("batch-mix", "coset-enum", "snf-dense"))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # the benchmark's own child processes
    parser.add_argument("--child", choices=("generate", "setup", "pass", "coverage"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spans", help=argparse.SUPPRESS)
    parser.add_argument("--job", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child != "coverage" and (args.workload is None or args.seed is None):
        parser.error("--workload and --seed are required")

    if args.child == "setup":
        print(json.dumps(_setup_child(args.workload, args.seed)))
        return 0
    try:
        _import_tdual()
    except ImportError as exc:
        print(f"error: cannot import tdual from {SRC}: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads

    if args.child == "generate":
        data = workloads.GENERATORS[args.workload](args.seed)
        with open(args.out, "w") as fh:
            json.dump(data, fh, separators=(",", ":"))
        return 0
    if args.child == "pass":
        print(json.dumps(_pass_child(args.workload, args.seed, args.traced, args.spans)))
        return 0
    if args.child == "coverage":
        print(json.dumps(_coverage_child(args.job)))
        return 0

    print(f"tdual bench: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    try:
        path = ensure_inputs(args.workload, args.seed)
    except subprocess.SubprocessError as exc:
        print(f"  FAILED input generation: {exc}")
        print(json.dumps(_result(False, 1, 1, {})))
        return 0
    correct = True
    recorded = recorded_digest("inputs", args.workload, args.seed)
    if recorded not in (None, file_digest(path)):
        print(f"  inputs {path} DIFFER from the digest recorded for this seed")
        correct = False
    runner = Runner(args.workload, args.seed, _load_ops(args.workload, args.seed))
    reporting = args.workload in workloads.REPORTING
    runner.check_pass(reporting)
    print(f"  checked pass: {len(runner.ops)} ops, {runner.failed} failed")
    if args.trace:
        metrics, traced_ok = _traced(args, runner)
        correct = correct and traced_ok
    else:
        metrics = _measured(args, runner)
    if metrics is None:
        metrics, correct = {}, False
    attempted = runner.attempted
    print(f"  ops {attempted}, failed_frac {runner.failed / attempted:.4g} "
          f"({runner.failed}/{attempted})")
    for err in runner.errors:
        print(f"  FAILED {err}")
    if reporting:
        digest = runner.digest.hexdigest()
        recorded = recorded_digest("reports", args.workload, args.seed)
        state = ("no recorded digest for this seed" if recorded is None else
                 "matches the recorded digest" if recorded == digest else
                 "DIFFERS from the recorded digest")
        print(f"  report digest {digest} {state}")
        correct = correct and recorded in (None, digest)
    correct = correct and runner.failed == 0
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(json.dumps(_result(correct, attempted, runner.failed, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
