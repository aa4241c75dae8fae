"""Registry-driven host runner for the distributed methods.

:func:`run_parallel` runs any registered method on ``P`` virtual ranks
and packages the outcome as a
:class:`~repro.results.PartitionResult` whose ``seconds`` is the
*simulated* execution time — the quantity the paper's Figures 3–6/9
plot — and whose ``stage_seconds`` carries the per-phase breakdown.

:func:`dist_scalapart` is the rank program combining the three shared
pipeline stages of paper §3 (phases are labelled so Figures 7–8 can be
regenerated from the trace).

Fault recovery
--------------
With a :class:`RetryPolicy`, :func:`run_parallel` degrades gracefully
instead of propagating the first engine fault.  On a typed failure
(:class:`~repro.errors.RankFailure`, :class:`~repro.errors.
DeadlockError`, :class:`~repro.errors.BudgetExceededError`, any other
:class:`~repro.errors.CommError`, or a balance-validation
:class:`~repro.errors.PartitionError`) it descends a deterministic
ladder:

1. **retry** — re-run at full ``P`` with a re-salted seed and the
   simulated budgets scaled by ``backoff**attempt``;
2. **shrink** — halve the rank count (``P/2``, ``P/4``, … down to
   ``min_ranks``), the Holtgrewe-style repartition-on-fewer-PEs path;
3. **fallback** — descend the registry ladder
   (:func:`~repro.core.methods.recovery_ladder`): distributed ScalaPart,
   then sequential ScalaPart, then sequential RCB.

Every recovered partition is validated against the producing method's
``balance_bound`` (or the policy's ``validate_imbalance`` when the
method declares none), so degradation never returns a silently broken
partition.  The full attempt trail lands in
``result.extras["recovery"]``; the whole ladder is deterministic per
``(seed, FaultPlan)``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

import numpy as np

from ..errors import CommError, ConfigError, PartitionError, ReproError
from ..graph.csr import CSRGraph
from ..graph.partition import Bisection, KWayPartition
from ..parallel.checkpoint import CheckpointContext, as_policy
from ..parallel.engine import run_spmd
from ..parallel.faults import FaultPlan
from ..parallel.machine import MachineModel, QDR_CLUSTER
from ..parallel.trace import SpmdResult
from ..rng import SeedLike, derive_seed
from .config import ScalaPartConfig
from .cost import resolve_costs
from .methods import MethodSpec, get_method, recovery_ladder
from .stages import as_coords
from ..results import PartitionResult

__all__ = [
    "RetryPolicy",
    "run_parallel",
    "dist_scalapart",
]

#: seed-salting namespace for recovery attempts (epoch 0 keeps the
#: caller's seed; attempt k reruns with derive_seed(seed, salt, k))
_RETRY_SALT = 0x5AFE

#: seed-salting namespace for the retry backoff jitter draw
_JITTER_SALT = 0x117E4


@dataclass(frozen=True)
class RetryPolicy:
    """How :func:`run_parallel` degrades when an engine run fails.

    ``retries`` re-runs at full ``P`` (re-salted seed, budgets scaled by
    ``backoff`` per attempt) come first; then, if ``shrink``, the rank
    count is halved down to ``min_ranks``; then, if ``fallback``, the
    registry's :func:`~repro.core.methods.recovery_ladder` is descended.
    ``validate_imbalance`` is the balance bound applied to recovered
    partitions whose method declares no ``balance_bound`` of its own.

    ``base_delay`` > 0 sleeps before every re-attempt:
    ``base_delay * backoff**(epoch-1)`` stretched by up to ``jitter``
    (multiplicatively, ``1 + jitter*u`` with ``u`` drawn via
    :func:`~repro.rng.derive_seed` from the run seed), so concurrent
    retries of many jobs de-stampede deterministically per seed.  The
    default 0 keeps recovery immediate; each attempt's actual sleep is
    recorded as ``"delay"`` in the ``extras["recovery"]`` trail.
    """

    retries: int = 1
    backoff: float = 2.0
    base_delay: float = 0.0
    jitter: float = 0.5
    shrink: bool = True
    min_ranks: int = 2
    fallback: bool = True
    validate_imbalance: float = 0.15

    def delay_for(self, seed: SeedLike, epoch: int) -> float:
        """Deterministic jittered backoff delay before attempt ``epoch``."""
        if self.base_delay <= 0.0 or epoch <= 0:
            return 0.0
        u = derive_seed(seed, _JITTER_SALT, epoch) / float(2 ** 63)
        return self.base_delay * self.backoff ** (epoch - 1) \
            * (1.0 + self.jitter * u)


def dist_scalapart(
    comm,
    graph: CSRGraph,
    config: Optional[ScalaPartConfig] = None,
    seed: SeedLike = None,
):
    """Rank program: full distributed ScalaPart (coarsen→embed→partition).

    Kept for API compatibility; delegates to the registry's rank
    program, which composes the shared stage objects.
    """
    prog = get_method("ScalaPart").distributed
    return (yield from prog(comm, graph, config=config, seed=seed))


def _package(
    graph: CSRGraph,
    res: SpmdResult,
    method: str,
    max_imbalance: Optional[float] = None,
    *,
    k: int = 2,
    costs=None,
    is_kway: bool = False,
) -> PartitionResult:
    """Package an SPMD run; validate balance when a bound is declared.

    ``max_imbalance`` is the method's declared ``balance_bound`` (wired
    through by :func:`run_parallel`); ``None`` skips validation.
    ``simulated`` reflects the producing backend: the procs backend's
    ``seconds`` are measured wall time, not modelled cluster time.
    K-way methods (``is_kway``) return label arrays in ``[0, k)``;
    their results carry a :class:`KWayPartition` (plus a
    :class:`Bisection` view when ``k == 2``, so 2-way harnesses see
    them like any other method).
    """
    side, info = res.values[0]
    bis = None
    kway = None
    if is_kway:
        kway = KWayPartition(
            graph, np.asarray(side, dtype=np.int64), k, costs=costs
        )
        if k <= 2:
            bis = kway.to_bisection()
    else:
        bis = Bisection(graph, np.asarray(side, dtype=np.int8))
    # phases are hierarchical ("embed/refresh" ⊂ "embed"): report every
    # label the run used plus the aggregated top-level stages the paper's
    # figures consume
    stage_seconds = {name: ph.elapsed for name, ph in res.phases.items()}
    phase_comm = {name: ph.comm_fraction for name, ph in res.phases.items()}
    for root in res.phase_roots():
        agg = res.phase(root)
        stage_seconds[root] = agg.elapsed
        phase_comm[root] = agg.comm_fraction
    extras = {
        **info,
        "nranks": res.nranks,
        "backend": res.backend,
        "comm_fraction": res.comm_fraction,
        "phase_comm": phase_comm,
        "comm_stats": res.comm_stats,
        "trace": res,
    }
    if res.pids is not None:
        extras["pids"] = list(res.pids)
    out = PartitionResult(
        bisection=bis,
        kway=kway,
        method=method,
        seconds=res.elapsed,
        simulated=(res.backend == "sim"),
        stage_seconds=stage_seconds,
        extras=extras,
    )
    if max_imbalance is not None:
        out.validate(max_imbalance)
    return out


def _engine_attempt(
    spec: MethodSpec,
    graph: CSRGraph,
    nranks: int,
    *,
    coords,
    config,
    seed,
    machine,
    copy_mode,
    sanitize,
    max_imbalance,
    faults,
    max_steps,
    max_sim_seconds,
    backend="sim",
    op_timeout=None,
    k=2,
    cost_model=None,
    checkpoint: Optional[CheckpointContext] = None,
) -> PartitionResult:
    """One engine run of ``spec`` on ``nranks`` ranks, packaged+validated.

    With a :class:`~repro.parallel.checkpoint.CheckpointContext`, the
    attempt first probes the store for the last durable stage: a
    verified embed artifact swaps the run to ``spec.resume_method`` fed
    the persisted coordinates (skipping re-coarsening + re-embedding),
    while an unusable artifact is ignored — recorded in
    ``extras["checkpoint"]["ignored"]`` — and the full pipeline runs,
    persisting its own embed stage for the next attempt.
    """
    target = (max_imbalance if max_imbalance is not None
              else spec.default_max_imbalance)

    run_spec = spec
    run_coords = coords
    resumed_from = None
    if (checkpoint is not None and coords is None
            and checkpoint.can_resume(spec)):
        artifact = checkpoint.load_stage(spec.checkpoint_stages[-1])
        if artifact is not None:
            run_spec = get_method(spec.resume_method)
            run_coords = artifact
            resumed_from = artifact.stage
    save_ctx = checkpoint if (checkpoint is not None and resumed_from is None
                              and checkpoint.can_save(spec)) else None

    def prog(comm):
        kw = {}
        if run_spec.kway:
            kw.update(k=k, cost_model=cost_model)
        if save_ctx is not None:
            kw["checkpoint"] = save_ctx
        return (yield from run_spec.distributed(
            comm, graph, coords=run_coords, config=config, seed=seed,
            max_imbalance=target, **kw,
        ))

    engine_seed = 0 if run_spec.seed_salt is None \
        else derive_seed(seed, run_spec.seed_salt)
    res = run_spmd(prog, nranks, machine=machine, seed=engine_seed,
                   copy_mode=copy_mode, sanitize=sanitize, faults=faults,
                   max_steps=max_steps, max_sim_seconds=max_sim_seconds,
                   backend=backend, op_timeout=op_timeout)
    costs = resolve_costs(graph, cost_model) if spec.kway else None
    out = _package(graph, res, spec.name, max_imbalance=spec.balance_bound,
                   k=k, costs=costs, is_kway=spec.kway)
    if checkpoint is not None:
        out.extras["checkpoint"] = {
            "resumed_from": resumed_from,
            "store": str(checkpoint.policy.store.root),
            "ignored": list(checkpoint.ignored),
        }
    return out


def _layout_coords(graph: CSRGraph, seed: SeedLike):
    """Deterministic fallback coordinates for coordinate-based methods."""
    from ..embed.multilevel import hu_layout

    return hu_layout(graph, seed=seed)


def _scaled(budget: Optional[float], scale: float):
    if budget is None:
        return None
    return type(budget)(budget * scale)


def _first_line(exc: BaseException) -> str:
    return str(exc).splitlines()[0] if str(exc) else type(exc).__name__


def _run_recovering(
    spec: MethodSpec,
    graph: CSRGraph,
    nranks: int,
    *,
    coords,
    config,
    seed,
    machine,
    copy_mode,
    sanitize,
    max_imbalance,
    faults: Optional[FaultPlan],
    retry: RetryPolicy,
    max_steps,
    max_sim_seconds,
    backend="sim",
    op_timeout=None,
    k=2,
    cost_model=None,
    checkpoint: Optional[CheckpointContext] = None,
) -> PartitionResult:
    """Descend the recovery ladder until an attempt yields a valid cut."""
    attempts: List[Dict[str, Any]] = []
    epoch = 0
    last_exc: Optional[BaseException] = None

    def bound_for(aspec: MethodSpec) -> float:
        if aspec.balance_bound is not None:
            return aspec.balance_bound
        return retry.validate_imbalance

    def finish(out: PartitionResult, rec: Dict[str, Any],
               aspec: MethodSpec) -> PartitionResult:
        rec["status"] = "ok"
        rec["cut"] = int(out.cut_size)
        rec["imbalance"] = float(out.imbalance)
        attempts.append(rec)
        recovery: Dict[str, Any] = {
            "attempts": attempts,
            "recovered": len(attempts) > 1,
            "final_method": aspec.name,
            "final_nranks": rec["nranks"],
        }
        ck = out.extras.get("checkpoint")
        if ck is not None:
            recovery["resumed_from"] = ck.get("resumed_from")
        out.extras["recovery"] = recovery
        return out

    def engine_attempt(step: str, aspec: MethodSpec,
                       p: int) -> Optional[PartitionResult]:
        nonlocal epoch, last_exc
        scale = retry.backoff ** epoch
        aseed = seed if epoch == 0 else derive_seed(seed, _RETRY_SALT, epoch)
        plan = None if faults is None else faults.for_attempt(epoch)
        delay = retry.delay_for(seed, epoch)
        rec: Dict[str, Any] = {"step": step, "mode": "engine",
                               "method": aspec.name, "nranks": p,
                               "attempt": epoch, "delay": delay}
        epoch += 1
        if delay > 0.0:
            time.sleep(delay)
        try:
            out = _engine_attempt(
                aspec, graph, p, coords=coords, config=config, seed=aseed,
                machine=machine, copy_mode=copy_mode, sanitize=sanitize,
                max_imbalance=max_imbalance, faults=plan,
                max_steps=_scaled(max_steps, scale),
                max_sim_seconds=_scaled(max_sim_seconds, scale),
                backend=backend, op_timeout=op_timeout,
                k=k, cost_model=cost_model, checkpoint=checkpoint,
            )
            ck = out.extras.get("checkpoint")
            if ck is not None and ck.get("resumed_from"):
                rec["resumed_from"] = ck["resumed_from"]
            out.validate(bound_for(aspec))
        except (CommError, PartitionError) as exc:
            rec["status"] = "failed"
            rec["error"] = f"{type(exc).__name__}: {_first_line(exc)}"
            attempts.append(rec)
            last_exc = exc
            return None
        return finish(out, rec, aspec)

    def sequential_attempt(aspec: MethodSpec) -> Optional[PartitionResult]:
        nonlocal epoch, last_exc
        aseed = derive_seed(seed, _RETRY_SALT, epoch)
        delay = retry.delay_for(seed, epoch)
        rec: Dict[str, Any] = {"step": "fallback", "mode": "sequential",
                               "method": aspec.name, "nranks": 1,
                               "attempt": epoch, "delay": delay}
        epoch += 1
        if delay > 0.0:
            time.sleep(delay)
        try:
            scoords = None
            if aspec.needs_coords:
                scoords = (coords if coords is not None
                           else _layout_coords(graph, aseed))
            if k != 2:
                # k-way fallback: any bisection method reaches K parts
                # via recursive bisection + the shared k-way refinement
                from .kway import partition_kway

                out = partition_kway(
                    graph, k, aspec, coords=scoords,
                    config=config if aspec.accepts_config else None,
                    seed=aseed, cost_model=cost_model,
                    max_imbalance=(max_imbalance if max_imbalance is not None
                                   else 0.05),
                )
            else:
                kwargs: Dict[str, Any] = {"seed": aseed}
                if aspec.accepts_config:
                    kwargs["config"] = config
                out = aspec.sequential(graph, scoords, **kwargs)
            out.validate(bound_for(aspec))
        except ReproError as exc:
            rec["status"] = "failed"
            rec["error"] = f"{type(exc).__name__}: {_first_line(exc)}"
            attempts.append(rec)
            last_exc = exc
            return None
        return finish(out, rec, aspec)

    # stage 1: the primary run plus retries at full rank count
    for attempt in range(max(0, retry.retries) + 1):
        out = engine_attempt("primary" if attempt == 0 else "retry",
                             spec, nranks)
        if out is not None:
            return out

    # stage 2: shrink the rank count (repartition on fewer virtual PEs)
    p_floor = max(1, retry.min_ranks)
    p_last = nranks
    if retry.shrink:
        p = nranks // 2
        while p >= p_floor:
            p_last = p
            out = engine_attempt("shrink", spec, p)
            if out is not None:
                return out
            if p == 1:
                break
            p //= 2

    # stage 3: descend the registry ladder to simpler methods
    if retry.fallback:
        for mode, fspec in recovery_ladder(spec):
            if mode == "dist":
                if k != 2 and not fspec.kway:
                    # bisection rank programs cannot produce K parts;
                    # their sequential recursive-bisection form can
                    continue
                out = engine_attempt("fallback", fspec, p_last)
            else:
                out = sequential_attempt(fspec)
            if out is not None:
                return out

    raise PartitionError(
        f"recovery exhausted after {len(attempts)} attempt(s) for method "
        f"{spec.name!r} on {nranks} ranks; last error: "
        f"{type(last_exc).__name__ if last_exc else 'none'}: "
        f"{_first_line(last_exc) if last_exc else ''}"
    ) from last_exc


def run_parallel(
    method,
    graph: CSRGraph,
    nranks: int,
    *,
    coords=None,
    config: Optional[ScalaPartConfig] = None,
    seed: SeedLike = None,
    machine: MachineModel = QDR_CLUSTER,
    copy_mode: str = "readonly",
    sanitize: Optional[bool] = None,
    max_imbalance: Optional[float] = None,
    faults: Optional[FaultPlan] = None,
    retry: Optional[RetryPolicy] = None,
    max_steps: Optional[int] = None,
    max_sim_seconds: Optional[float] = None,
    backend: str = "sim",
    op_timeout: Optional[float] = None,
    k: int = 2,
    cost_model=None,
    checkpoint=None,
) -> PartitionResult:
    """Run a registered method on ``nranks`` virtual ranks.

    ``method`` is a :class:`~repro.core.methods.MethodSpec`, a canonical
    name or a CLI name.  ``coords`` (for coordinate-based methods) may
    be a raw ``(n, 2)`` array or an
    :class:`~repro.core.stages.EmbeddingArtifact` captured from another
    run.  ``max_imbalance`` overrides the refinement target handed to
    the rank program (``spec.default_max_imbalance`` otherwise); the
    packaged result is validated against the spec's declared
    ``balance_bound``.  ``copy_mode`` is the engine's payload-delivery
    mode (see :func:`~repro.parallel.engine.run_spmd`); results are
    identical under both settings, ``"readonly"`` is the zero-copy fast
    path.  ``sanitize`` is forwarded to the engine's dynamic sanitizer
    (``None`` defers to the ``REPRO_SANITIZE`` environment variable).

    ``faults`` injects a deterministic
    :class:`~repro.parallel.faults.FaultPlan` into the engine;
    ``max_steps``/``max_sim_seconds`` bound the run (see
    :func:`~repro.parallel.engine.run_spmd`).  Without a ``retry``
    policy the resulting typed errors propagate to the caller; with one,
    the recovery ladder documented in the module docstring is descended
    and the attempt trail is attached as ``extras["recovery"]``.

    ``backend`` selects the executor (``"sim"`` — the deterministic
    simulator, or ``"procs"`` — one worker process per rank; see
    :func:`~repro.parallel.engine.run_spmd`); both run the same rank
    program and must produce bit-identical partitions.  ``op_timeout``
    bounds per-operation blocking on the procs backend.

    ``k`` is the number of parts; values other than 2 need a native
    k-way method (``spec.kway``, e.g. ``"kway-geometric"``).
    ``cost_model`` selects the balance cost (a registered name, a
    :class:`~repro.core.cost.CostModel`, or a per-vertex array) and is
    forwarded to k-way rank programs; recovered k-way fallbacks run
    recursive bisection + k-way refinement under the same model.

    ``checkpoint`` enables stage-durable elastic recovery: a directory
    path, :class:`~repro.parallel.checkpoint.CheckpointStore` or
    :class:`~repro.parallel.checkpoint.CheckpointPolicy`.  Methods that
    declare ``checkpoint_stages`` persist their completed embedding
    (atomic, crc-verified, keyed by graph hash × config fingerprint ×
    seed × stage); every attempt — including the primary one, so a
    restarted process benefits too — probes the store first and, on a
    strictly verified hit, resumes downstream of the artifact via the
    spec's ``resume_method`` instead of re-coarsening and re-embedding.
    Any key mismatch or corrupt payload demotes to a full recompute.
    The outcome is reported in ``extras["checkpoint"]`` (and mirrored
    as ``extras["recovery"]["resumed_from"]`` when a retry policy is
    active).
    """
    spec = method if isinstance(method, MethodSpec) else get_method(method)
    if spec.distributed is None:
        raise ConfigError(
            f"method {spec.name!r} has no distributed implementation"
        )
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if k != 2 and not spec.kway:
        raise ConfigError(
            f"method {spec.name!r} is a bisection method; only native "
            f"k-way methods accept k={k} (use partition_kway for "
            "recursive bisection)"
        )
    if graph.num_vertices < max(2, k):
        raise PartitionError(
            f"cannot split {graph.num_vertices} vertices into "
            f"{max(2, k)} parts"
        )
    if spec.needs_coords:
        coords = as_coords(coords)
    policy = as_policy(checkpoint)
    ctx = None
    if policy is not None:
        ctx = CheckpointContext.for_run(policy, graph, spec, config, seed,
                                        k=k, cost_model=cost_model)
    if retry is None:
        return _engine_attempt(
            spec, graph, nranks, coords=coords, config=config, seed=seed,
            machine=machine, copy_mode=copy_mode, sanitize=sanitize,
            max_imbalance=max_imbalance, faults=faults,
            max_steps=max_steps, max_sim_seconds=max_sim_seconds,
            backend=backend, op_timeout=op_timeout,
            k=k, cost_model=cost_model, checkpoint=ctx,
        )
    return _run_recovering(
        spec, graph, nranks, coords=coords, config=config, seed=seed,
        machine=machine, copy_mode=copy_mode, sanitize=sanitize,
        max_imbalance=max_imbalance, faults=faults, retry=retry,
        max_steps=max_steps, max_sim_seconds=max_sim_seconds,
        backend=backend, op_timeout=op_timeout,
        k=k, cost_model=cost_model, checkpoint=ctx,
    )
