"""Backend-neutral semantics of the SPMD operations.

Both executors — the simulator (:mod:`repro.parallel.engine`) and the
real-process backend (:mod:`repro.parallel.procs`) — call the functions
here, so what an operation means is written once:

* ``send`` is buffered/eager (like MPI_Send under the eager protocol):
  it never blocks the sender.  ``recv`` blocks until a matching message
  (same source, tag and communicator) has been posted.  Messages between
  a (src, dst, tag) pair are delivered FIFO.
* A collective completes when *every* rank of its communicator has
  posted the *same* collective.  Mismatched kinds or roots, an
  out-of-range root and malformed inputs raise
  :class:`~repro.errors.CommError`, with one message on both backends.
  Reductions fold in local-rank order with the first member's op.

A backend passes in its *delivery* function — how one payload reaches
one receiver: a read-only view or a copy in the simulator, the identity
in procs, whose transport copies per receiver — and keeps the rest:
the simulator its scheduler and Hockney clock, procs its codec, router
and worker lifecycle.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import CommError
from .faults import corrupt_payload

__all__ = ["payload_words"]


# ----------------------------------------------------------------------
# payload utilities
# ----------------------------------------------------------------------

def payload_words(obj: Any) -> float:
    """Estimate the size of a payload in 8-byte words.

    Used by the cost model when the caller does not pass ``words=``.
    NumPy arrays are exact; containers are summed recursively; scalars
    count as one word.
    """
    if obj is None:
        return 0.0
    if isinstance(obj, np.ndarray):
        return max(1.0, obj.nbytes / 8.0)
    if isinstance(obj, (int, float, complex, bool, np.generic)):
        return 1.0
    if isinstance(obj, (bytes, str)):
        return max(1.0, len(obj) / 8.0)
    if isinstance(obj, (list, tuple, set, frozenset)):
        return 1.0 + sum(payload_words(x) for x in obj)
    if isinstance(obj, dict):
        return 1.0 + sum(payload_words(k) + payload_words(v) for k, v in obj.items())
    d = getattr(obj, "__dict__", None)
    if d is not None:
        return 1.0 + payload_words(d)
    return 4.0


def _copy_payload(obj: Any) -> Any:
    """Defensive copy of a message payload (arrays and containers)."""
    if isinstance(obj, np.ndarray):
        return obj.copy()
    if isinstance(obj, list):
        return [_copy_payload(x) for x in obj]
    if isinstance(obj, tuple):
        return tuple(_copy_payload(x) for x in obj)
    if isinstance(obj, dict):
        return {k: _copy_payload(v) for k, v in obj.items()}
    return obj


def _readonly_payload(obj: Any) -> Any:
    """Zero-copy delivery: arrays become read-only views of the sender's
    buffer (containers are rebuilt so the structure is private, the
    array data is not)."""
    if isinstance(obj, np.ndarray):
        view = obj.view()
        view.flags.writeable = False
        return view
    if isinstance(obj, list):
        return [_readonly_payload(x) for x in obj]
    if isinstance(obj, tuple):
        return tuple(_readonly_payload(x) for x in obj)
    if isinstance(obj, dict):
        return {k: _readonly_payload(v) for k, v in obj.items()}
    return obj


# ----------------------------------------------------------------------
# reductions
# ----------------------------------------------------------------------

_REDUCERS: Dict[str, Callable[[Any, Any], Any]] = {
    "sum": lambda a, b: a + b,
    "prod": lambda a, b: a * b,
    "min": lambda a, b: (np.minimum(a, b) if isinstance(a, np.ndarray)
                         or isinstance(b, np.ndarray) else min(a, b)),
    "max": lambda a, b: (np.maximum(a, b) if isinstance(a, np.ndarray)
                         or isinstance(b, np.ndarray) else max(a, b)),
}

#: one-shot ufunc per named op for the stacked-array fast path
_ARRAY_REDUCERS = {"sum": np.sum, "prod": np.prod, "min": np.min, "max": np.max}


def _reduce_values(values: Sequence[Any], op) -> Any:
    """Combine per-rank contributions into one reduction result.

    Named ops on array payloads take a vectorised fast path: the
    contributions are stacked and reduced with a single ufunc call
    instead of a pairwise Python fold.  Shape-mismatched array
    contributions (including scalars mixed with arrays) raise
    :class:`CommError` — silently broadcasting them is never what a
    distributed reduction means.
    """
    if callable(op):
        fn = op
        acc = _copy_payload(values[0])
        for v in values[1:]:
            acc = fn(acc, v)
        return acc
    try:
        fn = _REDUCERS[op]
    except KeyError:
        raise CommError(f"unknown reduction op {op!r}") from None
    if any(isinstance(v, np.ndarray) for v in values):
        shapes = {v.shape if isinstance(v, np.ndarray) else () for v in values}
        if len(shapes) != 1:
            raise CommError(
                f"{op} reduction over mismatched payload shapes {sorted(shapes)}; "
                "all ranks must contribute arrays of one shape"
            )
        return _ARRAY_REDUCERS[op](np.stack(values), axis=0)
    if len(values) == 1:
        return _copy_payload(values[0])
    acc = values[0]
    for v in values[1:]:
        acc = fn(acc, v)
    return acc


# ----------------------------------------------------------------------
# requests and communicators
# ----------------------------------------------------------------------

_COLLECTIVES = {
    "barrier", "bcast", "reduce", "allreduce", "gather", "allgather",
    "scatter", "alltoall", "scan", "split", "exchange",
}

#: collectives whose ``root`` argument is meaningful
_ROOTED = ("bcast", "reduce", "gather", "scatter")

_COPY_MODES = ("readonly", "defensive")


@dataclass
class _Op:
    """A communication request yielded by a rank program."""

    kind: str
    cid: Any
    value: Any = None
    root: int = 0
    op: Any = "sum"
    tag: int = 0
    source: int = -1
    dest: int = -1
    color: Any = None
    key: int = 0
    words: Optional[float] = None
    #: per-message copy override for sends (None = engine copy_mode)
    copy: Optional[bool] = None
    #: memoised payload_words(value) — computed at most once per op
    wcache: Optional[float] = None
    #: sanitizer checksum of the payload at post time (sanitize mode)
    cksum: Optional[int] = None


def _op_words(op: _Op) -> float:
    """Payload size of an op in words, computed once and cached.

    Collectives consult the size twice (ledger accounting and cost
    model); caching keeps the recursive container walk off the hot path.
    """
    if op.words is not None:
        return op.words
    if op.wcache is None:
        op.wcache = payload_words(op.value)
    return op.wcache


@dataclass
class _Group:
    """A communicator: an ordered list of participating global ranks."""

    cid: Any
    members: Tuple[int, ...]  # global rank ids, position = local rank

    @property
    def size(self) -> int:
        return len(self.members)

    def peer(self, op: _Op) -> int:
        """Global rank of a send's ``dest`` / a recv's ``source``."""
        what, local = ("send dest", op.dest) if op.kind == "send" \
            else ("recv source", op.source)
        if not (0 <= local < self.size):
            raise CommError(
                f"{what} {local} out of range for comm size {self.size}"
            )
        return self.members[local]


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------

def check_config(nranks: int, copy_mode: str) -> None:
    """The run-level checks both backends apply before starting."""
    if nranks < 1:
        raise CommError(f"nranks must be >= 1, got {nranks}")
    if copy_mode not in _COPY_MODES:
        raise CommError(
            f"unknown copy_mode {copy_mode!r}; expected one of {_COPY_MODES}"
        )


def env_sanitize() -> bool:
    """Default for ``run_spmd``'s ``sanitize`` from the environment."""
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() in (
        "1", "true", "yes", "on"
    )


def check_yielded(grank: int, op: Any) -> None:
    """A rank program may only yield the ops its :class:`Comm` builds."""
    if not isinstance(op, _Op):
        raise CommError(
            f"rank {grank} yielded {op!r}; rank programs must only "
            "yield via 'yield from comm.<op>(...)'"
        )


def check_collective(cid: Any, ops: List[_Op],
                     explain: Optional[Callable[[], str]] = None) -> str:
    """Validate one collective step and return its kind.

    ``ops`` holds every member's request in local-rank order.  Raises
    :class:`CommError` on mismatched kinds or roots, an out-of-range
    root and malformed scatter / alltoall / exchange inputs.
    ``explain`` (called only on a kind mismatch) appends backend
    diagnostics such as the sanitizer's ledger history.
    """
    kinds = {o.kind for o in ops}
    if len(kinds) != 1:
        msg = (
            f"mismatched collectives on comm {cid}: "
            + ", ".join(f"rank {i}:{o.kind}" for i, o in enumerate(ops))
        )
        if explain is not None:
            msg += explain()
        raise CommError(msg)
    kind = kinds.pop()
    p = len(ops)
    if kind in _ROOTED:
        roots = {o.root for o in ops}
        if len(roots) != 1:
            raise CommError(f"mismatched roots in {kind} on comm {cid}: {roots}")
        root = ops[0].root
        if not (0 <= root < p):
            raise CommError(f"{kind} root {root} out of range for comm size {p}")
    if kind == "scatter":
        vals = ops[ops[0].root].value
        if vals is None or len(vals) != p:
            raise CommError(
                f"scatter root must supply exactly {p} values, got "
                f"{None if vals is None else len(vals)}"
            )
    elif kind == "alltoall":
        for o in ops:
            if o.value is None or len(o.value) != p:
                raise CommError(f"alltoall requires {p} values per rank")
    elif kind == "exchange":
        for i, o in enumerate(ops):
            msgs = o.value or {}
            if not isinstance(msgs, dict):
                raise CommError("exchange expects a dict {neighbor_rank: payload}")
            for dst in msgs:
                if not (0 <= dst < p):
                    raise CommError(f"exchange neighbour {dst} out of range")
                if dst == i:
                    raise CommError("exchange to self is not allowed")
    return kind


def parked_context(grank: int, op: Optional[_Op],
                   phase: str) -> Tuple[str, Dict[str, Any]]:
    """How a rank blocked on ``op`` (``None``: still running) is named
    in a :class:`~repro.errors.DeadlockError`: a short description and
    the exception's ``parked`` entry."""
    if op is None:
        return "running", {"rank": grank, "kind": "running", "peer": None,
                           "tag": None, "comm": None, "phase": phase}
    if op.kind == "recv":
        desc = f"recv(comm={op.cid}, source={op.source}, tag={op.tag})"
        peer, tag = op.source, op.tag
    else:
        desc = f"{op.kind}(comm={op.cid})"
        peer = tag = None
    return desc, {"rank": grank, "kind": op.kind, "peer": peer, "tag": tag,
                  "comm": op.cid, "phase": phase}


# ----------------------------------------------------------------------
# collective results
# ----------------------------------------------------------------------

def collective_results(kind: str, ops: List[_Op], members: Sequence[int],
                       deliver: Callable[[Any], Any], shared: bool,
                       open_group: Callable[[Tuple[int, ...]], List[Any]],
                       ) -> List[Any]:
    """Per-local-rank results of a validated collective.

    ``deliver`` hands one payload to one receiver.  ``shared`` says a
    delivered payload may be handed to several receivers (true for
    read-only views, and for a transport that copies per receiver), so
    an allgather delivers each contribution once.  Reductions fold with
    the first member's op in local-rank order.  ``open_group(members)``
    creates a split's child communicator and returns one handle per
    member, in the child's rank order.
    """
    p = len(ops)
    root = ops[0].root
    redop = ops[0].op
    if kind == "barrier":
        return [None] * p
    if kind == "bcast":
        # every rank gets its own container skeleton
        return [deliver(ops[root].value) for _ in range(p)]
    if kind == "reduce":
        red = _reduce_values([o.value for o in ops], redop)
        return [red if i == root else None for i in range(p)]
    if kind == "allreduce":
        red = _reduce_values([o.value for o in ops], redop)
        return [deliver(red) for _ in range(p)]
    if kind == "scan":
        results: List[Any] = []
        acc = None
        for o in ops:
            acc = _copy_payload(o.value) if acc is None \
                else _reduce_values([acc, o.value], redop)
            results.append(deliver(acc))
        return results
    if kind == "gather":
        gathered = [deliver(o.value) for o in ops]
        return [gathered if i == root else None for i in range(p)]
    if kind == "allgather":
        if shared:
            # ranks get private list skeletons over one delivery each
            items = [deliver(o.value) for o in ops]
            return [list(items) for _ in range(p)]
        return [[deliver(o.value) for o in ops] for _ in range(p)]
    if kind == "scatter":
        return [deliver(v) for v in ops[root].value]
    if kind == "alltoall":
        return [
            [deliver(ops[src].value[dst]) for src in range(p)]
            for dst in range(p)
        ]
    if kind == "exchange":
        inboxes: List[Dict[int, Any]] = [dict() for _ in range(p)]
        for i, o in enumerate(ops):
            for dst, payload in (o.value or {}).items():
                inboxes[dst][i] = deliver(payload)
        return inboxes
    if kind == "split":
        by_color: Dict[Any, List[Tuple[int, int]]] = {}
        for i, o in enumerate(ops):
            if o.color is not None:
                by_color.setdefault(o.color, []).append((o.key, i))
        results = [None] * p
        for color in sorted(by_color, key=repr):
            lst = sorted(by_color[color])
            handles = open_group(tuple(members[i] for _, i in lst))
            for (_, i), handle in zip(lst, handles):
                results[i] = handle
        return results
    raise CommError(f"unhandled collective {kind}")  # pragma: no cover


# ----------------------------------------------------------------------
# message faults
# ----------------------------------------------------------------------

def fault_copies(fault: Optional[Tuple[str, float]], value: Any, salt: int,
                 deliver: Callable[[Any], Any],
                 ) -> Tuple[List[Tuple[Any, float]], str]:
    """What a send puts on the wire under ``fault`` (``None`` = none).

    Returns the ``(payload, extra delay)`` copies to enqueue and the
    fault's detail string: drop enqueues nothing, duplicate two
    independent deliveries, delay one late copy, corrupt one copy with
    one element perturbed (``salt`` — the sender-local send ordinal —
    picks the element, so both backends perturb the same one).
    """
    if fault is None:
        return [(deliver(value), 0.0)], ""
    kind, delay = fault
    if kind == "drop":
        return [], ""
    if kind == "duplicate":
        return [(deliver(value), 0.0), (deliver(value), 0.0)], ""
    if kind == "delay":
        return [(deliver(value), delay)], f"delayed by {delay:.6g}s"
    if kind == "corrupt":
        payload, detail = corrupt_payload(deliver(value), salt)
        return [(payload, 0.0)], detail
    raise CommError(  # pragma: no cover - guarded by MessageFault
        f"unhandled message-fault kind {kind!r}")


# ----------------------------------------------------------------------
# ledger
# ----------------------------------------------------------------------
# ``host`` is the object a Comm holds (the simulator's engine or a procs
# worker): run totals plus ``stats_for(grank)``, the rank's per-phase
# CommStats.

def book_send(host: Any, grank: int, words: float) -> None:
    host.messages += 1
    host.words_sent += words
    stats = host.stats_for(grank)
    stats.sends[grank] += 1
    stats.words_sent[grank] += words


def book_recv(host: Any, grank: int, words: float) -> None:
    stats = host.stats_for(grank)
    stats.recvs[grank] += 1
    stats.words_received[grank] += words


def book_collective(host: Any, grank: int, op: _Op, first: bool) -> None:
    """Book one member's part in a collective.

    Every member counts its participation and contributed words; the
    operation itself is counted once, by the communicator's first
    member (``first``).
    """
    stats = host.stats_for(grank)
    stats._coll_array(op.kind)[grank] += 1
    stats.collective_words[grank] += _op_words(op)
    if first:
        host.collectives += 1
        stats.collective_ops[op.kind] = stats.collective_ops.get(op.kind, 0) + 1
