"""Span tracer for the benchmark's traced run.

The tracer wraps public entry points of the ``repro`` layers from
outside the package: while :meth:`Tracer.installed` is active, every
module binding of a target function (``from x import f`` copies
included) points at a wrapper, and the originals are restored
afterwards.  Nothing inside ``src/`` changes.

Time is charged to the innermost open span of whichever *context* is
executing, which gives every layer a self time:

* ``host`` -- the caller and, between rank steps, the SPMD engine;
* ``r<rank>`` -- a rank program.  On the ``sim`` backend all ranks are
  coroutines in this thread, so their contexts interleave with the host;
  a generator span runs from its first entry to its last exit;
* ``t<rank>`` -- on ``procs``, a worker's own time outside its rank
  program's steps (the transport).

Each span also records the SPMD phase label (``Comm.set_phase``) its
context was in when it opened, and the tracer counts phase entries, so
a kernel call can be placed in the phase where it runs.

Forked ``procs`` workers inherit the wrappers.  Each keeps its spans in
memory and writes them once, when its rank program ends, to a spool
file the parent reads back keyed by rank.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

HOST = "host"
#: layer / span name charged while no span is open in the running context
UNCOVERED = "-"

#: target kinds: a plain function, a generator function (rank-program
#: building block), a classmethod, and ``run_spmd`` itself
CALL = "call"
GEN = "gen"
CLASSMETHOD = "classmethod"
SPMD = "spmd"


@dataclass
class Span:
    """One traced entry-point invocation."""

    name: str
    layer: str
    ctx: str
    start: float
    end: float
    phase: str = UNCOVERED
    info: Dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class CallTrace:
    """Everything recorded during one traced call."""

    spans: List[Span]
    #: (ctx, layer, span name) -> self seconds
    self_time: Dict[Tuple[str, str, str], float]
    #: rank -> (first entry, last exit) of its rank program
    rank_spans: Dict[int, Tuple[float, float]]
    #: phase label -> number of ``set_phase`` calls, over all ranks
    phase_entries: Dict[str, int]

    @property
    def wall(self) -> float:
        """Duration of the outermost (``core``) span."""
        return self.spans[-1].seconds


@dataclass(frozen=True)
class Target:
    """A function to wrap: ``module.attr``, its layer and how to probe it.

    ``attr`` is ``Class.method`` for :data:`CLASSMETHOD` targets.
    ``probe(args, kwargs, result)`` returns JSON-safe counters recorded
    with the span (input size, moves, ...).
    """

    module: str
    attr: str
    layer: str
    kind: str = CALL
    probe: Optional[Callable[..., Dict[str, Any]]] = None


class Tracer:
    """Records spans around :class:`Target` functions during :meth:`run`."""

    def __init__(self, targets, spool_dir: Path) -> None:
        self.targets = tuple(targets)
        self.spool_dir = Path(spool_dir)
        self._pid = os.getpid()
        self._worker_rank: Optional[int] = None
        self._reset()

    # -- context and self-time bookkeeping ------------------------------
    def _reset(self) -> None:
        self.spans: List[Span] = []
        self.self_time: Dict[Tuple[str, str, str], float] = defaultdict(float)
        self.rank_spans: Dict[int, Tuple[float, float]] = {}
        self.phase_entries: Counter = Counter()
        self._phase: Dict[str, str] = {}
        self._stacks: Dict[str, List[Tuple[str, str]]] = {HOST: []}
        self._ctx = HOST
        self._mark = perf_counter()

    def _charge(self) -> float:
        now = perf_counter()
        stack = self._stacks[self._ctx]
        layer, name = stack[-1] if stack else (UNCOVERED, UNCOVERED)
        self.self_time[(self._ctx, layer, name)] += now - self._mark
        self._mark = now
        return now

    def _push(self, layer: str, name: str) -> Tuple[str, float]:
        now = self._charge()
        self._stacks[self._ctx].append((layer, name))
        return self._ctx, now

    def _pop(self, ctx: str) -> float:
        now = self._charge()
        self._stacks[ctx].pop()
        return now

    def _switch(self, ctx: str) -> None:
        self._charge()
        self._ctx = ctx
        self._stacks.setdefault(ctx, [])

    def _record(self, target: Target, ctx, t0, t1, args, kwargs, out) -> None:
        info = target.probe(args, kwargs, out) if target.probe else {}
        self.spans.append(Span(target.attr, target.layer, ctx, t0, t1,
                               self._phase.get(ctx, UNCOVERED), info))

    # -- wrappers ------------------------------------------------------
    def _wrap_call(self, fn, target: Target):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ctx, t0 = self._push(target.layer, target.attr)
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = self._pop(ctx)
            self._record(target, ctx, t0, t1, args, kwargs, out)
            return out

        return traced

    def _wrap_gen(self, fn, target: Target):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ctx, t0 = self._push(target.layer, target.attr)
            try:
                out = yield from fn(*args, **kwargs)
            finally:
                t1 = self._pop(ctx)
            self._record(target, ctx, t0, t1, args, kwargs, out)
            return out

        return traced

    def _wrap_spmd(self, fn, target: Target):
        """``run_spmd``: a host span, plus a context switch per rank step."""

        @functools.wraps(fn)
        def traced(prog, nranks, *args, **kwargs):
            ctx, t0 = self._push(target.layer, target.attr)
            out = None
            try:
                out = fn(self._rank_program(prog), nranks, *args, **kwargs)
                return out
            finally:
                t1 = self._pop(ctx)
                self._record(target, ctx, t0, t1, (), {}, out)
                if kwargs.get("backend") == "procs":
                    self._read_spool()

        return traced

    def _wrap_set_phase(self, fn):
        @functools.wraps(fn)
        def set_phase(comm, name):
            self._phase[self._ctx] = name
            self.phase_entries[name] += 1
            return fn(comm, name)

        return set_phase

    def _rank_program(self, prog):
        tracer = self

        def traced_rank(comm, *args, **kwargs):
            rank = comm.rank
            if os.getpid() != tracer._pid and tracer._worker_rank is None:
                tracer._become_worker(rank)
            me = f"r{rank}"
            tracer._switch(me)
            start = perf_counter()
            try:
                gen = prog(comm, *args, **kwargs)
                if not inspect.isgenerator(gen):
                    return gen
                value, error = None, None
                while True:
                    try:
                        op = gen.send(value) if error is None else gen.throw(error)
                    except StopIteration as stop:
                        return stop.value
                    tracer._switch(tracer._host())
                    value, error = None, None
                    try:
                        value = yield op
                    except GeneratorExit:
                        gen.close()
                        raise
                    except BaseException as exc:  # noqa: BLE001
                        # delivered into the rank program, which re-raises
                        # it unless it handles it itself
                        error = exc
                    tracer._switch(me)
            finally:
                tracer.rank_spans[rank] = (start, perf_counter())
                tracer._switch(tracer._host())
                if tracer._worker_rank is not None:
                    tracer._write_spool()

        return traced_rank

    # -- procs workers ---------------------------------------------------
    def _host(self) -> str:
        return HOST if self._worker_rank is None else f"t{self._worker_rank}"

    def _become_worker(self, rank: int) -> None:
        """First step in a forked worker: drop the parent's records and
        keep the inherited host stack (its top is ``run_spmd``, so the
        worker's time outside rank steps counts as transport)."""
        host_stack = list(self._stacks[HOST])
        self._reset()
        self._worker_rank = rank
        self._stacks = {f"t{rank}": host_stack}
        self._ctx = f"t{rank}"

    def _write_spool(self) -> None:
        self._charge()
        doc = {
            "spans": [[s.name, s.layer, s.ctx, s.start, s.end, s.phase, s.info]
                      for s in self.spans],
            "self_time": [[*key, secs] for key, secs in self.self_time.items()],
            "rank_spans": {str(r): list(v) for r, v in self.rank_spans.items()},
            "phase_entries": dict(self.phase_entries),
        }
        path = self.spool_dir / f"rank{self._worker_rank}-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(doc))
        tmp.replace(path)

    def _read_spool(self) -> None:
        for path in sorted(self.spool_dir.glob("rank*.json")):
            doc = json.loads(path.read_text())
            path.unlink()
            for name, layer, ctx, start, end, phase, info in doc["spans"]:
                self.spans.append(Span(name, layer, ctx, start, end, phase, info))
            for ctx, layer, name, secs in doc["self_time"]:
                self.self_time[(ctx, layer, name)] += secs
            for rank, (start, end) in doc["rank_spans"].items():
                self.rank_spans[int(rank)] = (start, end)
            self.phase_entries.update(doc["phase_entries"])

    # -- installation ------------------------------------------------------
    def _wrapper(self, orig, target: Target):
        if target.kind == GEN:
            return self._wrap_gen(orig, target)
        if target.kind == SPMD:
            return self._wrap_spmd(orig, target)
        return self._wrap_call(orig, target)

    @contextmanager
    def installed(self):
        """Point every ``repro`` module binding of each target at its
        wrapper (and wrap ``Comm.set_phase``); restore the originals on
        exit."""
        from repro.parallel.engine import Comm

        replace: Dict[int, Any] = {}
        patched = []
        try:
            for target in self.targets:
                mod = importlib.import_module(target.module)
                if target.kind == CLASSMETHOD:
                    cls_name, meth = target.attr.split(".")
                    cls = getattr(mod, cls_name)
                    orig = vars(cls)[meth]
                    setattr(cls, meth, classmethod(
                        self._wrap_call(orig.__func__, target)))
                    patched.append((cls, meth, orig))
                else:
                    orig = getattr(mod, target.attr)
                    replace[id(orig)] = (orig, self._wrapper(orig, target))
            orig_sp = vars(Comm)["set_phase"]
            Comm.set_phase = self._wrap_set_phase(orig_sp)
            patched.append((Comm, "set_phase", orig_sp))
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "repro"
                                       or mod_name.startswith("repro.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    hit = replace.get(id(value))
                    if hit is not None and hit[0] is value:
                        setattr(mod, attr, hit[1])
                        patched.append((mod, attr, value))
            yield self
        finally:
            for owner, attr, orig in reversed(patched):
                setattr(owner, attr, orig)

    def run(self, fn, *args, **kwargs) -> Tuple[Any, CallTrace]:
        """Call ``fn`` under a ``core`` span; targets must be installed."""
        self._reset()
        ctx, t0 = self._push("core", fn.__name__)
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = self._pop(ctx)
            self.spans.append(Span(fn.__name__, "core", ctx, t0, t1))
        trace = CallTrace(self.spans, dict(self.self_time),
                          dict(self.rank_spans), dict(self.phase_entries))
        self._reset()
        return out, trace
