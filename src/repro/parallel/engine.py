"""SPMD coroutine engine: virtual ranks, MPI-like communicators, clocks.

This is the substrate that stands in for the paper's MPI cluster.  A
*rank program* is a generator function

.. code-block:: python

    def program(comm, graph):
        local = graph_slice(graph, comm.rank, comm.size)
        comm.charge(local.num_edges)              # local computation
        total = yield from comm.allreduce(local.num_edges)
        return total

executed simultaneously (in simulation) on ``P`` virtual ranks by
:func:`run_spmd`.  Communication methods are generator methods and must
be invoked as ``result = yield from comm.op(...)``; purely local
operations (:meth:`Comm.charge`, :meth:`Comm.set_phase`) are plain
calls.  The engine advances each rank until it blocks on communication,
matches communication requests across ranks, charges Hockney-model
costs to per-rank simulated clocks, and resumes ranks with the results.

Why coroutines and not threads: the evaluation sweeps P up to 1,024
virtual ranks; generator-based ranks cost ~micro-seconds to suspend and
resume, are deterministic (ranks are always stepped in rank order), and
cannot data-race.  The *data path is real* — collectives really move
the Python/NumPy payloads between rank programs — so distributed
algorithms compute real results while the clocks estimate what the
communication would cost on the modelled cluster.

What an operation means — matching, validation, per-rank results,
message faults, ledger booking — is defined once in
:mod:`repro.parallel.ops` and shared with the real-process backend.
This module keeps the scheduler, the modelled cost of every operation,
the dynamic sanitizer and exact deadlock detection; :func:`run_spmd`
documents the knobs (``copy_mode``, ``sanitize``, ``faults``, budgets,
``backend``).
"""

from __future__ import annotations

import inspect
import warnings
from collections import deque
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.sanitizer import Sanitizer, payload_checksum
from ..errors import (
    BudgetExceededError,
    CommError,
    CommWarning,
    DeadlockError,
    RankFailure,
)
from ..rng import SeedLike, spawn_streams
from .faults import FaultEvent, FaultPlan
from .machine import MachineModel, QDR_CLUSTER
from .ops import (
    _COLLECTIVES,
    _ROOTED,
    _Group,
    _Op,
    _copy_payload,
    _op_words,
    _readonly_payload,
    book_collective,
    book_recv,
    book_send,
    check_collective,
    check_config,
    check_yielded,
    collective_results,
    env_sanitize,
    fault_copies,
    parked_context,
    payload_words,
)
from .trace import CommStats, DEFAULT_PHASE, PhaseBreakdown, SpmdResult

__all__ = ["Comm", "run_spmd", "payload_words"]

#: execution backends run_spmd can dispatch to
_BACKENDS = ("sim", "procs")


class Comm:
    """Per-rank handle to a communicator of the virtual machine.

    Mirrors the mpi4py surface (lower-case object API): ``rank``,
    ``size``, collectives, ``send``/``recv``, ``split``.  Every
    communication method is a generator and must be driven with
    ``yield from``.
    """

    def __init__(self, engine: "_Engine", group: _Group, grank: int) -> None:
        self._engine = engine
        self._group = group
        self._grank = grank

    # -- local, non-yielding ----------------------------------------------
    @property
    def rank(self) -> int:
        """This rank's index within the communicator."""
        return self._group.members.index(self._grank)

    @property
    def size(self) -> int:
        """Number of ranks in the communicator."""
        return self._group.size

    @property
    def world_rank(self) -> int:
        """Global rank id in the world communicator."""
        return self._grank

    @property
    def rng(self) -> np.random.Generator:
        """Rank-private deterministic random stream."""
        return self._engine.rngs[self._grank]

    @property
    def machine(self) -> MachineModel:
        return self._engine.machine

    def charge(self, work: float) -> None:
        """Charge ``work`` units of local computation to this rank's clock."""
        self._engine.charge(self._grank, work)

    def charge_comm_seconds(self, seconds: float) -> None:
        """Book modelled communication time directly on this rank's clock.

        For phases whose functional execution is folded (computed once
        and shared) but whose real communication schedule is known
        analytically — e.g. the coarsest-graph embedding's per-iteration
        exchanges.  Use sparingly; prefer real collectives.
        """
        if seconds < 0:
            raise CommError("cannot charge negative communication time")
        self._engine.charge_comm(self._grank, seconds)

    def set_phase(self, name: str) -> None:
        """Attribute subsequent time to phase ``name`` (see Figures 7–8)."""
        self._engine.set_phase(self._grank, name)

    @property
    def clock(self) -> float:
        """Current simulated time on this rank (seconds)."""
        return float(self._engine.clocks[self._grank])

    # -- point to point ----------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0, words: Optional[float] = None,
             copy: Optional[bool] = None):
        """Buffered send to local rank ``dest`` (never blocks).

        ``copy`` overrides the engine's delivery mode for this message:
        ``True`` forces a defensive deep copy, ``False`` forces the
        zero-copy read-only fast path, ``None`` (default) follows
        ``run_spmd``'s ``copy_mode``.
        """
        yield _Op("send", self._group.cid, value=obj, dest=dest, tag=tag,
                  words=words, copy=copy)

    def recv(self, source: int, tag: int = 0):
        """Blocking receive from local rank ``source``."""
        result = yield _Op("recv", self._group.cid, source=source, tag=tag)
        return result

    def sendrecv(self, obj: Any, dest: int, source: int, tag: int = 0,
                 words: Optional[float] = None, copy: Optional[bool] = None):
        """Exchange: send ``obj`` to ``dest`` and receive from ``source``."""
        yield _Op("send", self._group.cid, value=obj, dest=dest, tag=tag,
                  words=words, copy=copy)
        result = yield _Op("recv", self._group.cid, source=source, tag=tag)
        return result

    # -- collectives ---------------------------------------------------------
    def barrier(self):
        yield _Op("barrier", self._group.cid)

    def bcast(self, obj: Any, root: int = 0, words: Optional[float] = None):
        result = yield _Op("bcast", self._group.cid, value=obj, root=root, words=words)
        return result

    def reduce(self, value: Any, op="sum", root: int = 0, words: Optional[float] = None):
        result = yield _Op("reduce", self._group.cid, value=value, op=op, root=root, words=words)
        return result

    def allreduce(self, value: Any, op="sum", words: Optional[float] = None):
        result = yield _Op("allreduce", self._group.cid, value=value, op=op, words=words)
        return result

    def gather(self, value: Any, root: int = 0, words: Optional[float] = None):
        result = yield _Op("gather", self._group.cid, value=value, root=root, words=words)
        return result

    def allgather(self, value: Any, words: Optional[float] = None):
        result = yield _Op("allgather", self._group.cid, value=value, words=words)
        return result

    def scatter(self, values: Optional[Sequence[Any]], root: int = 0,
                words: Optional[float] = None):
        result = yield _Op("scatter", self._group.cid, value=values, root=root, words=words)
        return result

    def alltoall(self, values: Sequence[Any], words: Optional[float] = None):
        result = yield _Op("alltoall", self._group.cid, value=values, words=words)
        return result

    def scan(self, value: Any, op="sum", words: Optional[float] = None):
        """Inclusive prefix reduction."""
        result = yield _Op("scan", self._group.cid, value=value, op=op, words=words)
        return result

    def exchange(self, messages: Dict[int, Any], words: Optional[float] = None):
        """Halo exchange: send ``messages[nbr]`` to each neighbour (local
        rank), receive ``{nbr: payload}`` from every rank that targeted
        this one.  All ranks of the communicator must participate (ranks
        with nothing to send pass ``{}``); posted as one synchronising
        step — the idiom for the per-iteration boundary exchanges of the
        lattice embedding."""
        result = yield _Op("exchange", self._group.cid, value=messages, words=words)
        return result

    def split(self, color: Any, key: int = 0):
        """Partition the communicator by ``color`` (``None`` = leave).

        Returns a new :class:`Comm` whose ranks are ordered by
        ``(key, old rank)``, or ``None`` for ranks with ``color=None``.
        """
        result = yield _Op("split", self._group.cid, color=color, key=key)
        return result


# ----------------------------------------------------------------------
# sanitized communicator
# ----------------------------------------------------------------------

#: Comm methods wrapped by the sanitizer's undriven-generator tracking
_TRACKED_METHODS = ("send", "recv", "sendrecv") + tuple(sorted(_COLLECTIVES))


class _SanitizedComm(Comm):
    """Comm whose communication generators register with the engine's
    sanitizer, so ops created without ``yield from`` can be reported
    when the rank program returns (lint rule SP101's dynamic twin)."""

    def _tracked(self, name: str, inner):
        return self._engine.sanitizer.track(self._grank, name, inner)


def _make_tracked_method(name: str):
    base = getattr(Comm, name)

    def method(self, *args: Any, **kwargs: Any):
        return self._tracked(name, base(self, *args, **kwargs))

    method.__name__ = name
    method.__doc__ = base.__doc__
    return method


for _name in _TRACKED_METHODS:
    setattr(_SanitizedComm, _name, _make_tracked_method(_name))
del _name


# ----------------------------------------------------------------------
# engine
# ----------------------------------------------------------------------

_READY, _PARKED, _DONE, _DEAD = 0, 1, 2, 3


class _RankState:
    __slots__ = ("grank", "gen", "status", "op", "result", "send_value")

    def __init__(self, grank: int, gen) -> None:
        self.grank = grank
        self.gen = gen
        self.status = _READY
        self.op: Optional[_Op] = None
        self.result: Any = None
        self.send_value: Any = None


class _Engine:
    def __init__(self, nranks: int, machine: MachineModel, seed: SeedLike,
                 copy_mode: str = "readonly", sanitize: bool = False,
                 faults: Optional[FaultPlan] = None,
                 max_steps: Optional[int] = None,
                 max_sim_seconds: Optional[float] = None) -> None:
        self.machine = machine
        self.copy_mode = copy_mode
        self.sanitizer: Optional[Sanitizer] = Sanitizer(nranks) if sanitize else None
        # fault injection + budgets: all None on the no-fault fast path,
        # so the hot loop pays only `is not None` checks
        self.faults = faults
        self.max_steps = max_steps
        self.max_sim_seconds = max_sim_seconds
        self.steps = 0
        self.op_counts = [0] * nranks if faults is not None else None
        # sender-local send ordinals: the cross-backend fault site (the
        # procs backend counts the same per-rank sequence)
        self.send_counts = [0] * nranks if faults is not None else None
        self.fault_events: List[FaultEvent] = []
        self.dead: Dict[int, FaultEvent] = {}
        self.nranks = nranks
        self.clocks = np.zeros(nranks)
        self.comp_time = np.zeros(nranks)
        self.comm_time = np.zeros(nranks)
        self.phase = [DEFAULT_PHASE] * nranks
        self.phase_acc: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        self.rngs = spawn_streams(seed, nranks)
        self.mailbox: Dict[Tuple[int, int, int, int], deque] = {}
        self.groups: Dict[int, _Group] = {}
        self._next_cid = 0
        self.messages = 0
        self.collectives = 0
        self.words_sent = 0.0
        self.stats: Dict[str, CommStats] = {}

    # -- accounting ----------------------------------------------------------
    def _phase_arrays(self, name: str) -> Tuple[np.ndarray, np.ndarray]:
        if name not in self.phase_acc:
            self.phase_acc[name] = (np.zeros(self.nranks), np.zeros(self.nranks))
        return self.phase_acc[name]

    def charge(self, grank: int, work: float) -> None:
        dt = self.machine.compute_cost(work)
        self.clocks[grank] += dt
        self.comp_time[grank] += dt
        self._phase_arrays(self.phase[grank])[0][grank] += dt

    def charge_comm(self, grank: int, dt: float) -> None:
        self.clocks[grank] += dt
        self.comm_time[grank] += dt
        self._phase_arrays(self.phase[grank])[1][grank] += dt

    def advance_to(self, grank: int, t: float) -> None:
        """Move a rank's clock forward to ``t``, booking the gap as comm."""
        if t > self.clocks[grank]:
            self.charge_comm(grank, t - float(self.clocks[grank]))

    def set_phase(self, grank: int, name: str) -> None:
        self.phase[grank] = name

    def stats_for(self, grank: int) -> CommStats:
        """Comm counters of the phase ``grank`` is currently in."""
        name = self.phase[grank]
        s = self.stats.get(name)
        if s is None:
            s = self.stats[name] = CommStats.zeros(self.nranks)
        return s

    def deliver(self, obj: Any, copy: Optional[bool] = None) -> Any:
        """Prepare a payload for handing to a receiving rank.

        ``copy=None`` follows the engine's ``copy_mode``; ``True``/
        ``False`` force the defensive copy / zero-copy path per message.
        """
        defensive = (self.copy_mode == "defensive") if copy is None else copy
        return _copy_payload(obj) if defensive else _readonly_payload(obj)

    def new_group(self, members: Sequence[int]) -> _Group:
        g = _Group(self._next_cid, tuple(members))
        self.groups[g.cid] = g
        self._next_cid += 1
        return g

    def make_comm(self, group: _Group, grank: int) -> Comm:
        cls = Comm if self.sanitizer is None else _SanitizedComm
        return cls(self, group, grank)


def run_spmd(
    fn: Callable,
    nranks: int,
    *args: Any,
    machine: MachineModel = QDR_CLUSTER,
    seed: SeedLike = None,
    copy_mode: str = "readonly",
    sanitize: Optional[bool] = None,
    faults: Optional[FaultPlan] = None,
    max_steps: Optional[int] = None,
    max_sim_seconds: Optional[float] = None,
    backend: str = "sim",
    op_timeout: Optional[float] = None,
    stall_timeout: Optional[float] = None,
    **kwargs: Any,
) -> SpmdResult:
    """Execute rank program ``fn`` on ``nranks`` virtual ranks.

    ``fn(comm, *args, **kwargs)`` must be a generator function (or a
    plain function if it performs no communication).  Returns a
    :class:`~repro.parallel.trace.SpmdResult` with per-rank return
    values and the simulated timing accounts.

    ``copy_mode`` selects payload-delivery semantics.  The default
    ``"readonly"`` fast path delivers NumPy arrays as zero-copy
    *read-only views* — halo exchanges, allgathers and β-refreshes cost
    O(1) per array.  Receivers that need to mutate call ``.copy()``
    (in-place mutation raises ``ValueError``), and senders must not
    mutate a payload after posting it — the contract of the
    :class:`~repro.graph.distributed.Shared` idiom.  ``"defensive"``
    deep-copies every delivery, and ``comm.send(..., copy=True/False)``
    overrides the mode per message.  The two modes are functionally
    equivalent for rank programs that follow the no-mutation contract —
    the determinism suite asserts identical results under both.

    ``sanitize`` enables the dynamic sanitizer
    (:mod:`repro.analysis.sanitizer`): posted payloads are checksummed
    and mutation before delivery raises :class:`CommError`, completed
    collectives are ledgered per rank and cross-checked on exit,
    communication generators created without ``yield from`` are
    reported when their rank returns, and undelivered messages at exit
    become an error instead of a :class:`~repro.errors.CommWarning`.
    ``None`` (default) reads the ``REPRO_SANITIZE`` environment
    variable, so a test shard can turn it on without touching call
    sites.  A correct rank program returns identical results with and
    without it.

    ``faults`` is a deterministic :class:`~repro.parallel.faults.
    FaultPlan` the scheduler consults to kill ranks and drop / duplicate
    / delay / corrupt point-to-point messages; injected faults are
    recorded on ``SpmdResult.faults`` and surviving ranks that depend on
    a dead rank raise :class:`~repro.errors.RankFailure`.  ``max_steps``
    / ``max_sim_seconds`` bound the run (communication ops posted /
    simulated clock) and convert runaway programs into a typed
    :class:`~repro.errors.BudgetExceededError` instead of a hang.  With
    all three left ``None`` (the default) the engine takes the existing
    fast path unchanged.

    ``backend`` selects the executor: ``"sim"`` (default) is the
    deterministic single-process simulator documented above;
    ``"procs"`` runs the same rank program on one worker *process* per
    rank (:func:`~repro.parallel.procs.run_spmd_procs`) with measured
    wall-clock timing.  ``op_timeout`` bounds how long a procs-backend
    rank may block on one operation before a
    :class:`~repro.errors.DeadlockError`; ``stall_timeout`` bounds how
    long the procs parent tolerates *every* live rank sitting blocked
    at once before declaring a global deadlock via its heartbeat
    supervisor (both ignored by the simulator, which detects deadlocks
    exactly).  An unknown backend raises
    ``ValueError`` — catching typos that the engine's ``**kwargs``
    forwarding used to swallow silently.
    """
    if backend not in _BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; known backends: "
            + ", ".join(repr(b) for b in _BACKENDS)
        )
    if backend == "procs":
        from .procs import run_spmd_procs

        # env-derived sanitize is deliberately NOT resolved here: only an
        # explicit sanitize=True is an error on the procs backend
        return run_spmd_procs(
            fn, nranks, *args, machine=machine, seed=seed,
            copy_mode=copy_mode, sanitize=sanitize, faults=faults,
            max_steps=max_steps, max_sim_seconds=max_sim_seconds,
            op_timeout=op_timeout, stall_timeout=stall_timeout, **kwargs,
        )
    check_config(nranks, copy_mode)
    if sanitize is None:
        sanitize = env_sanitize()
    eng = _Engine(nranks, machine, seed, copy_mode=copy_mode,
                  sanitize=sanitize, faults=faults, max_steps=max_steps,
                  max_sim_seconds=max_sim_seconds)
    world = eng.new_group(range(nranks))
    states: List[_RankState] = []
    for r in range(nranks):
        comm = eng.make_comm(world, r)
        out = fn(comm, *args, **kwargs)
        st = _RankState(r, out if inspect.isgenerator(out) else None)
        if st.gen is None:
            st.status = _DONE
            st.result = out
            _check_undriven(eng, r)
        states.append(st)

    ready = deque(st for st in states if st.status == _READY)
    while True:
        # 1. advance every runnable rank to its next blocking point
        while ready:
            st = ready.popleft()
            _step(eng, states, st)
        # 2. match parked requests
        progress = _complete_recvs(eng, states, ready)
        progress |= _complete_collectives(eng, states, ready)
        if eng.max_sim_seconds is not None \
                and float(eng.clocks.max()) > eng.max_sim_seconds:
            raise BudgetExceededError(
                f"simulated clock {float(eng.clocks.max()):.6g}s exceeded "
                f"the max_sim_seconds budget of {eng.max_sim_seconds:.6g}s",
                budget="sim_seconds", limit=eng.max_sim_seconds,
                used=float(eng.clocks.max()),
            )
        if ready:
            continue
        if all(st.status in (_DONE, _DEAD) for st in states):
            break
        if not progress:
            _raise_deadlock(eng, states)

    if eng.dead:
        # killed ranks never produced results: the job is incomplete
        # even if every survivor returned cleanly
        rank, ev = next(iter(sorted(eng.dead.items())))
        raise RankFailure(
            f"rank {rank} was killed in phase {ev.phase!r} at "
            f"t={ev.time:.6g}s (op {ev.op_index}) and never returned; "
            f"{len(eng.dead)} rank(s) dead at exit",
            dead_rank=rank, phase=ev.phase,
            sim_time=float(eng.clocks.max()),
        )
    _check_undelivered(eng)
    _check_ledgers(eng)
    phases = {
        name: PhaseBreakdown(comp, comm)
        for name, (comp, comm) in eng.phase_acc.items()
    }
    return SpmdResult(
        values=[st.result for st in states],
        clocks=eng.clocks,
        comp_time=eng.comp_time,
        comm_time=eng.comm_time,
        phases=phases,
        messages=eng.messages,
        collectives=eng.collectives,
        words_sent=eng.words_sent,
        comm_stats=CommStats.aggregate(eng.stats, nranks),
        faults=list(eng.fault_events),
    )


def _check_undriven(eng: _Engine, grank: int) -> None:
    """Sanitizer: fail if ``grank`` returned with undriven comm generators.

    Calling ``comm.send(...)`` without ``yield from`` builds a generator
    that never runs — the message is silently never posted (lint rule
    SP101 catches the static pattern; this is the dynamic counterpart).
    """
    if eng.sanitizer is None:
        return
    leftover = eng.sanitizer.undriven_ops(grank)
    if leftover:
        ops = ", ".join(leftover)
        raise CommError(
            f"sanitizer: rank {grank} returned with {len(leftover)} "
            f"communication generator(s) it never drove: {ops}; "
            "communication methods must be driven with "
            "'yield from comm.<op>(...)' or the operation never executes"
        )


def _check_undelivered(eng: _Engine) -> None:
    """Report messages still queued when every rank has returned.

    A leftover mailbox entry means some rank sent a message nobody
    received — usually a tag/peer mismatch.  Warns by default
    (:class:`~repro.errors.CommWarning`) with the full pending-message
    list (source→dest, tag, words); the sanitizer escalates the same
    condition to :class:`~repro.errors.CommError`.
    """
    leftovers = [
        f"{len(q)} message(s) rank {src} -> rank {dst} "
        f"(tag={tag}, comm={cid}, "
        f"{sum(entry[1] for entry in q):.0f} words)"
        for (src, dst, tag, cid), q in sorted(eng.mailbox.items())
        if q
    ]
    if not leftovers:
        return
    msg = (
        "SPMD program finished with undelivered messages: "
        + "; ".join(leftovers)
        + " — check for mismatched tags or a missing recv"
    )
    if eng.sanitizer is not None:
        raise CommError("sanitizer: " + msg)
    warnings.warn(msg, CommWarning, stacklevel=3)


def _check_ledgers(eng: _Engine) -> None:
    """Sanitizer: cross-check per-communicator collective sequences."""
    if eng.sanitizer is None:
        return
    mismatch = eng.sanitizer.sequence_mismatch(eng.groups)
    if mismatch:
        raise CommError("sanitizer: " + mismatch)


def _sanitize_collective(eng: _Engine, kind: str, parked: List[_RankState]) -> None:
    """Verify posted-payload checksums and book the collective ledger."""
    root = parked[0].op.root if kind in _ROOTED else None
    for s in parked:
        if s.op.cksum is not None and payload_checksum(s.op.value) != s.op.cksum:
            raise CommError(
                f"sanitizer: rank {s.grank} had its {kind} payload mutated "
                "between posting the collective and its completion; under "
                "copy_mode='readonly' other ranks may alias this memory — "
                "post a copy or delay the mutation until the collective "
                "completes"
            )
        eng.sanitizer.record_collective(s.grank, s.op.cid, kind, root)


def _kill_rank(eng: _Engine, st: _RankState, op_index: int) -> None:
    """Inject a rank death: close the generator, record the event."""
    ev = FaultEvent(
        kind="kill", time=float(eng.clocks[st.grank]), rank=st.grank,
        op_index=op_index, phase=eng.phase[st.grank],
        detail=f"rank {st.grank} killed posting op {op_index}",
    )
    eng.fault_events.append(ev)
    eng.dead[st.grank] = ev
    try:
        st.gen.close()
    except Exception:
        # a finally-block that yields raises on close; the rank is dead
        # either way
        pass
    st.op = None
    st.status = _DEAD


def _step(eng: _Engine, states: List[_RankState], st: _RankState) -> None:
    """Run one rank until it parks on a blocking op or finishes."""
    value = st.send_value
    st.send_value = None
    while True:
        try:
            op = st.gen.send(value)
        except StopIteration as stop:
            st.status = _DONE
            st.result = stop.value
            _check_undriven(eng, st.grank)
            return
        check_yielded(st.grank, op)
        if eng.max_steps is not None:
            eng.steps += 1
            if eng.steps > eng.max_steps:
                raise BudgetExceededError(
                    f"SPMD program posted more than max_steps="
                    f"{eng.max_steps} communication operations",
                    budget="steps", limit=eng.max_steps, used=eng.steps,
                )
        if eng.faults is not None:
            op_index = eng.op_counts[st.grank]
            eng.op_counts[st.grank] = op_index + 1
            if eng.faults.kill_now(st.grank, op_index, len(eng.dead)):
                _kill_rank(eng, st, op_index)
                return
        if op.kind == "send":
            _do_send(eng, st.grank, op)
            value = None
            continue
        st.op = op
        st.status = _PARKED
        if eng.sanitizer is not None and op.kind in _COLLECTIVES \
                and op.value is not None:
            # snapshot the payload at post time; verified when the
            # collective completes (other ranks run in between and may
            # alias this memory via the Shared idiom)
            op.cksum = payload_checksum(op.value)
        return


def _do_send(eng: _Engine, grank: int, op: _Op) -> None:
    gdst = eng.groups[op.cid].peer(op)
    words = _op_words(op)
    t_post = float(eng.clocks[grank])
    # sender pays the injection overhead; transfer overlaps
    eng.charge_comm(grank, eng.machine.t_s)
    arrival = t_post + eng.machine.message_cost(words)
    cksum = None
    if eng.sanitizer is not None and op.value is not None:
        cksum = payload_checksum(op.value)
    fault = None
    local_index = 0
    if eng.faults is not None:
        # eng.messages is the global send ordinal (deterministic rank
        # scheduling order); the sender-local ordinal is the site shared
        # with the procs backend, so random rates and rank-scoped
        # scheduled faults fire on the same logical messages there
        local_index = eng.send_counts[grank]
        eng.send_counts[grank] = local_index + 1
        fault = eng.faults.message_fault(eng.messages, sender=grank,
                                         sender_index=local_index)
    copies, detail = fault_copies(fault, op.value, local_index,
                                  lambda obj: eng.deliver(obj, op.copy))
    q = eng.mailbox.setdefault((grank, gdst, op.tag, op.cid), deque())
    for payload, delay in copies:
        # a corrupted copy keeps the post-time cksum: under sanitize the
        # mismatch is caught at delivery
        q.append((arrival + delay, words, payload, cksum))
    if fault is not None:
        eng.fault_events.append(FaultEvent(
            kind=fault[0], time=float(eng.clocks[grank]), rank=grank,
            dest=gdst, tag=op.tag, msg_index=eng.messages,
            phase=eng.phase[grank], detail=detail,
        ))
    book_send(eng, grank, words)


def _complete_recvs(eng: _Engine, states: List[_RankState], ready: deque) -> bool:
    progress = False
    for st in states:
        if st.status != _PARKED or st.op is None or st.op.kind != "recv":
            continue
        gsrc = eng.groups[st.op.cid].peer(st.op)
        key = (gsrc, st.grank, st.op.tag, st.op.cid)
        q = eng.mailbox.get(key)
        if not q:
            if states[gsrc].status == _DEAD:
                # nothing queued and the source can never post again
                ev = eng.dead[gsrc]
                raise RankFailure(
                    f"rank {st.grank} blocked on recv(source={st.op.source}, "
                    f"tag={st.op.tag}, comm={st.op.cid}) from rank {gsrc}, "
                    f"which was killed in phase {ev.phase!r} at "
                    f"t={ev.time:.6g}s",
                    dead_rank=gsrc, phase=ev.phase,
                    sim_time=float(eng.clocks[st.grank]),
                    detected_by=st.grank,
                )
            continue
        arrival, words, payload, cksum = q.popleft()
        if cksum is not None and payload_checksum(payload) != cksum:
            raise CommError(
                f"sanitizer: rank {gsrc} mutated a buffer it had posted to "
                f"send(tag={st.op.tag}) before rank {st.grank} received it; "
                "under copy_mode='readonly' the receiver aliases the "
                "sender's memory — send a copy (obj.copy() or copy=True) "
                "or delay the mutation until after the matching receive"
            )
        stats = eng.stats_for(st.grank)
        book_recv(eng, st.grank, words)
        # idle time: the receiver sat parked before the sender even
        # posted; the transfer itself is the modelled message cost
        wait = arrival - float(eng.clocks[st.grank]) - eng.machine.message_cost(words)
        if wait > 0:
            stats.wait_time[st.grank] += wait
        eng.advance_to(st.grank, arrival)
        st.send_value = payload
        st.op = None
        st.status = _READY
        ready.append(st)
        progress = True
    return progress


def _complete_collectives(eng: _Engine, states: List[_RankState], ready: deque) -> bool:
    # group parked collective ops by communicator
    by_cid: Dict[int, List[_RankState]] = {}
    for st in states:
        if st.status == _PARKED and st.op is not None and st.op.kind in _COLLECTIVES:
            by_cid.setdefault(st.op.cid, []).append(st)
    progress = False
    for cid, parked in by_cid.items():
        group = eng.groups[cid]
        if len(parked) != group.size:
            if eng.dead:
                dead_members = [g for g in group.members
                                if states[g].status == _DEAD]
                if dead_members:
                    # the collective can never complete: a member is dead
                    g = dead_members[0]
                    ev = eng.dead[g]
                    waiter = parked[0]
                    raise RankFailure(
                        f"collective '{waiter.op.kind}' on comm {cid} can "
                        f"never complete: rank {g} was killed in phase "
                        f"{ev.phase!r} at t={ev.time:.6g}s "
                        f"({len(parked)}/{group.size} ranks arrived)",
                        dead_rank=g, phase=ev.phase,
                        sim_time=float(eng.clocks[waiter.grank]),
                        detected_by=waiter.grank,
                    )
            # a member is missing: either still running (fine) or done (deadlock later)
            continue
        parked.sort(key=lambda s: group.members.index(s.grank))
        kind = check_collective(
            cid, [s.op for s in parked],
            None if eng.sanitizer is None
            else partial(_ledger_history, eng, parked),
        )
        if eng.sanitizer is not None:
            _sanitize_collective(eng, kind, parked)
        _count_collective(eng, parked)
        _run_collective(eng, group, kind, parked)
        for st in parked:
            st.op = None
            st.status = _READY
            ready.append(st)
        progress = True
    return progress


def _ledger_history(eng: _Engine, parked: List[_RankState]) -> str:
    """Sanitizer context for a kind mismatch: each member's last
    collectives."""
    return "\nrecent collectives before the mismatch:\n" + "\n".join(
        "  " + eng.sanitizer.ledger_tail(s.grank) for s in parked
    )


def _count_collective(eng: _Engine, parked: List[_RankState]) -> None:
    """Book one collective into the comm ledger (before clocks move).

    Every member's ledger entry is the core's
    :func:`~repro.parallel.ops.book_collective`; the skew a member
    absorbed waiting for the slowest one is booked as wait time.
    """
    t0 = max(float(eng.clocks[s.grank]) for s in parked)
    for s in parked:
        g = s.grank
        book_collective(eng, g, s.op, first=s is parked[0])
        wait = t0 - float(eng.clocks[g])
        if wait > 0:
            eng.stats_for(g).wait_time[g] += wait


def _collective_words(kind: str, ops: List[_Op]) -> float:
    """Per-rank payload size the cost model charges for a collective."""
    p = len(ops)
    if kind == "barrier":
        return 0.0
    if kind == "bcast":
        return _op_words(ops[ops[0].root])
    if kind == "split":
        return 1.0
    if kind == "scatter":
        rop = ops[ops[0].root]
        if rop.words is not None:
            return rop.words / p
        return max(payload_words(v) for v in rop.value)
    if kind == "alltoall":
        return max(
            max(payload_words(v) for v in o.value) if o.words is None else o.words / p
            for o in ops
        )
    return max(_op_words(o) for o in ops)


def _run_collective(eng: _Engine, group: _Group, kind: str, parked: List[_RankState]) -> None:
    ops = [st.op for st in parked]
    t0 = max(float(eng.clocks[st.grank]) for st in parked)
    results = collective_results(
        kind, ops, group.members, eng.deliver,
        shared=eng.copy_mode == "readonly",
        open_group=partial(_open_group, eng),
    )
    if kind == "exchange":
        costs = [_exchange_cost(eng, o, inbox) for o, inbox in zip(ops, results)]
    else:
        costs = [eng.machine.collective_cost(
            kind, group.size, _collective_words(kind, ops))] * len(ops)
    for st, cost, result in zip(parked, costs, results):
        eng.advance_to(st.grank, t0 + cost)
        st.send_value = result


def _exchange_cost(eng: _Engine, op: _Op, inbox: Dict[int, Any]) -> float:
    """One rank's share of a halo exchange: its neighbours and the
    larger of its outgoing and incoming volumes."""
    msgs = op.value or {}
    out_words = op.words if op.words is not None \
        else sum(payload_words(v) for v in msgs.values())
    in_words = sum(payload_words(v) for v in inbox.values())
    return eng.machine.exchange_cost(len(msgs), float(out_words), float(in_words))


def _open_group(eng: _Engine, members: Tuple[int, ...]) -> List[Comm]:
    """A split's child communicator: one Comm per member."""
    g = eng.new_group(members)
    return [eng.make_comm(g, grank) for grank in members]


def _raise_deadlock(eng: _Engine, states: List[_RankState]) -> None:
    """No rank can progress: name every parked op with its context.

    Each blocked rank contributes one entry (kind, peer, tag, comm,
    phase) to both the message and the exception's ``parked`` list, so
    the deadlock is diagnosable without re-running under trace.
    """
    lines = []
    parked = []
    for st in states:
        if st.status in (_DONE, _DEAD):
            continue
        phase = eng.phase[st.grank]
        desc, entry = parked_context(st.grank, st.op, phase)
        parked.append(entry)
        lines.append(f"  rank {st.grank}: waiting on {desc} "
                     f"[phase {phase!r}]")
    if eng.dead:
        for rank, ev in sorted(eng.dead.items()):
            lines.append(f"  rank {rank}: DEAD (killed in phase "
                         f"{ev.phase!r} at t={ev.time:.6g}s)")
        rank, ev = next(iter(sorted(eng.dead.items())))
        raise RankFailure(
            "SPMD stalled after a rank failure: no surviving rank can "
            "make progress.\n" + "\n".join(lines),
            dead_rank=rank, phase=ev.phase,
            sim_time=float(eng.clocks.max()),
        )
    raise DeadlockError(
        "SPMD deadlock: no rank can make progress.\n" + "\n".join(lines),
        parked=parked,
    )
