"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload grid-sp --seed 1 --seconds 25 --trace 0

Closed loop: one caller makes one ``run_parallel`` call at a time until
``--seconds`` have passed, cycling through a fixed sequence of
partitioner seeds; ``--seed`` generates the input graph.  Every
returned partition is checked independently (``check.py``).
Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  The exit code is 0 only when
every operation succeeded and passed its check.

Must be run from a checkout holding ``src/repro``; it writes only under
``.perfbench/`` there.  See README.md in this directory.
"""

from __future__ import annotations

import os
import sys

if __name__ == "__main__":
    # Workers must not oversubscribe the cores: pin the BLAS/OpenMP
    # thread pools before NumPy is first imported.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import Any, Optional  # noqa: E402

from check import DEFAULT_BOUND, CheckFailed, check_partition  # noqa: E402
from layers import (TARGETS, call_metrics, kernel_attribution,  # noqa: E402
                    per_layer_names, phase_metrics, unit_of)
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, call_seed, run_seed  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]

#: unit of every end-to-end metric
E2E_UNITS = {"wall_s": "s", "sim_s": "s", "cut": "edges", "setup_s": "s",
             "peak_rss_mb": "MB", "seq_wall_s": "s"}

#: set-up repetitions (input generation, METIS write and read-back)
SETUP_REPS = 3
#: calls of the sequential single-process baseline per run
SEQ_CALLS = 3
#: standard percentiles, highest first, for the tail report
PERCENTILES = (99.9, 99.0, 90.0, 50.0)


def import_program() -> float:
    """Import ``repro`` from this checkout's ``src``; return seconds."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import repro.core.parallel
    import repro.graph.io  # noqa: F401
    seconds = perf_counter() - t0
    where = Path(repro.core.parallel.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"repro imported from {where}, not from {src}")
    return seconds


def blas_threads() -> Optional[int]:
    """Thread count of the loaded OpenBLAS, or None if none is loaded."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def tail(values):
    """Highest standard percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for p in PERCENTILES:
        if (1 - p / 100) * n >= 10:
            return p, ordered[int(p / 100 * n)]
    return None, None


@dataclass
class Call:
    """One successful, checked partition call."""

    result: Any
    seconds: float
    cut: int
    trace: Any = None


class Runner:
    """Makes, times and checks the operations of one run."""

    def __init__(self, workload, seed: int, tiny: bool, work: Path) -> None:
        from repro.core.methods import get_method

        self.wl = workload
        self.seed = seed
        self.tiny = tiny
        self.work = work
        self.spec = get_method(workload.method)
        bound = self.spec.balance_bound
        self.bound = DEFAULT_BOUND if bound is None else bound
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.graph = None

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def setup(self):
        """Generate, write and read back the input ``SETUP_REPS`` times;
        return the (generate, write, read) seconds of each repetition."""
        import numpy as np
        from repro.graph.io import read_metis, write_metis

        path = self.work / "input.graph"
        reps = []
        for _ in range(SETUP_REPS):
            t0 = perf_counter()
            gen = self.wl.generate(self.seed, self.tiny)
            t1 = perf_counter()
            write_metis(gen.graph, path)
            t2 = perf_counter()
            graph = read_metis(path)
            t3 = perf_counter()
            self.attempted += 1
            if not (np.array_equal(graph.indptr, gen.graph.indptr)
                    and np.array_equal(graph.indices, gen.graph.indices)):
                self.fail("METIS read-back differs from the generated input")
            reps.append((t1 - t0, t2 - t1, t3 - t2))
        self.graph = graph
        return reps

    def attempt(self, fn) -> Optional[Call]:
        """Run ``fn() -> (result, seconds, trace)`` and check the result;
        a typed error or a failed check counts as a failure."""
        from repro.errors import ReproError

        self.attempted += 1
        try:
            result, seconds, trace = fn()
            labels = (result.kway.parts if result.kway is not None
                      else result.bisection.side)
            g = self.graph
            checked = check_partition(g.indptr, g.indices, g.vwgt, labels,
                                      self.wl.k, self.bound)
        except (ReproError, CheckFailed) as exc:
            self.fail(f"{type(exc).__name__}: {exc}")
            return None
        return Call(result, seconds, checked.cut, trace)

    def parallel(self, seed: int, backend: Optional[str] = None,
                 tracer: Optional[Tracer] = None) -> Optional[Call]:
        from repro.core.parallel import run_parallel

        args = (self.spec, self.graph, self.wl.nranks)
        kw = dict(seed=seed, k=self.wl.k, backend=backend or self.wl.backend)

        def call():
            if tracer is not None:
                with tracer.installed():
                    res, trace = tracer.run(run_parallel, *args, **kw)
                return res, trace.wall, trace
            t0 = perf_counter()
            res = run_parallel(*args, **kw)
            return res, perf_counter() - t0, None

        return self.attempt(call)

    def sequential(self, i: int) -> Optional[Call]:
        kw = {"k": self.wl.k} if self.spec.kway else {}

        def call():
            t0 = perf_counter()
            res = self.spec.sequential(self.graph, seed=call_seed(i), **kw)
            return res, perf_counter() - t0, None

        return self.attempt(call)


def closed_loop(runner: Runner, seconds: float, tracer: Optional[Tracer]):
    """Call until ``seconds`` have passed; with a tracer, every second
    call is traced.  Returns the (untraced, traced) successful calls.
    A failure ends the loop once the time is up: the run is already
    incorrect."""
    plain, traced = [], []
    start = perf_counter()
    i = 0
    while True:
        i += 1
        if tracer is not None and i % 2 == 0:
            call = runner.parallel(call_seed(i), tracer=tracer)
            if call:
                traced.append(call)
        else:
            call = runner.parallel(call_seed(i))
            if call:
                plain.append(call)
        done = plain and (tracer is None or traced)
        if perf_counter() - start >= seconds and (done or runner.failed):
            return plain, traced


def run(args) -> int:
    import_s = import_program()
    wl = WORKLOADS[args.workload]
    work = ROOT / ".perfbench" / f"{wl.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, wl, work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        stop_resource_tracker()


def stop_resource_tracker() -> None:
    """Stop and reap the helper process ``multiprocessing`` starts for
    the procs backend's shared memory, so no process outlives the run."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def measure(args, wl, work: Path, import_s: float) -> int:
    med = statistics.median
    runner = Runner(wl, args.seed, args.tiny, work)
    reps = runner.setup()
    t0 = perf_counter()
    runner.parallel(call_seed(0))  # warm-up: lazy imports, per-graph caches
    setup_s = import_s + med(sum(r) for r in reps) + perf_counter() - t0

    tracer = Tracer(TARGETS, work) if args.trace else None
    plain, traced = closed_loop(runner, args.seconds, tracer)
    seq = [c for c in (runner.sequential(j) for j in range(1, SEQ_CALLS + 1))
           if c is not None]
    # modelled time of one call seeded by the workload seed, so that it
    # samples the partitioner's seeds across runs; on procs workloads it
    # is also the only call on the sim backend
    extra = runner.parallel(run_seed(args.seed), backend="sim")
    sims = [extra.result] if extra is not None else []
    if any(not r.simulated for r in sims):
        runner.fail("a sim-backend result is not marked simulated")
        sims = []

    env = {"workload": wl.name, "seed": args.seed, "method": wl.method,
           "backend": wl.backend, "nranks": wl.nranks, "k": wl.k,
           "n": runner.graph.num_vertices, "m": runner.graph.num_edges,
           "nproc": os.cpu_count(), "blas_threads": blas_threads()}
    print(" ".join(f"{key}={value}" for key, value in env.items()))

    walls = [c.seconds for c in plain]
    metrics = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb()}
    if walls:
        metrics["wall_s"] = med(walls)
        p, value = tail(walls)
        print(f"wall_s samples={len(walls)} " + (
            f"p{p:g}={value:.4f} s" if p is not None
            else "(no percentile has 10 samples beyond it)"))
    if sims:
        metrics["sim_s"] = med(r.seconds for r in sims)
    if plain or traced:
        metrics["cut"] = med(c.cut for c in plain + traced)
    if seq:
        metrics["seq_wall_s"] = med(c.seconds for c in seq)
    print(f"fail_rate {runner.failed / runner.attempted:.4g} "
          f"({runner.failed} of {runner.attempted} operations)")
    for err in runner.errors:
        print(f"failure: {err}")

    if tracer is None:
        wanted = list(E2E_UNITS)
        report = {name: {"value": metrics[name], "unit": E2E_UNITS[name]}
                  for name in wanted if name in metrics}
    else:
        wanted = per_layer_names()
        layer = per_layer(wl, reps, walls, traced, sims)
        report = {name: {"value": value, "unit": unit_of(name)}
                  for name, value in layer.items()}
        traces = [c.trace for c in traced]
        attribution = kernel_attribution(
            _kernel_rows(), traces, [c.result for c in traced], wl.backend,
            runner.graph.num_vertices)
        for row, e in attribution.items():
            print(f"kernel {row}: layer={e['layer']} "
                  f"phases={','.join(e['phases']) or '-'} "
                  f"calls_per_call={e['calls_per_call']:g} "
                  f"mean_n={e['mean_n']} source={e['source']}")
        _write_trace(wl, args.seed, env, traces, attribution, layer)

    for name, entry in report.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    correct = runner.failed == 0 and all(name in report for name in wanted)
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": report}))
    return 0 if correct else 1


def per_layer(wl, reps, walls, traced, sims):
    """Medians over the traced calls of every per-layer metric; zero for
    a layer that does not run."""
    med = statistics.median
    layer = dict.fromkeys(per_layer_names(), 0.0)
    per_call = [call_metrics(c.trace, c.result, wl.backend) for c in traced]
    for name in per_call[0] if per_call else ():
        layer[name] = med(m[name] for m in per_call)
    phases = [phase_metrics(c.result) for c in traced]
    if wl.backend != "sim":
        phases += [phase_metrics(r) for r in sims]
    for name in {key for ph in phases for key in ph}:
        layer[name] = med(ph[name] for ph in phases if name in ph)
    layer["graph.gen_s"] = med(r[0] for r in reps)
    layer["graph.read_s"] = med(r[2] for r in reps)
    if walls and traced:
        layer["trace.overhead_s"] = med(c.seconds for c in traced) - med(walls)
    return layer


def _kernel_rows():
    path = ROOT / "BENCH_kernels.json"
    if not path.exists():
        return []
    return sorted(json.loads(path.read_text())["kernels"])


def _write_trace(wl, seed, env, traces, attribution, layer) -> None:
    """Write every span of the traced calls once, at the end of the run."""
    doc = {
        "env": env,
        "per_layer": layer,
        "kernels": attribution,
        "calls": [{
            "wall_s": t.wall,
            "spans": [[s.name, s.layer, s.ctx, s.start, s.end, s.phase, s.info]
                      for s in t.spans],
            "self_time": [[*key, secs] for key, secs in t.self_time.items()],
            "phase_entries": t.phase_entries,
        } for t in traces],
    }
    out = ROOT / ".perfbench" / f"trace-{wl.name}-seed{seed}.json"
    out.write_text(json.dumps(doc))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    return run(ap.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
