"""Differential tests: ``backend="procs"`` must match ``backend="sim"``.

The procs executor runs the *same* registry-driven rank programs on
real worker processes.  Because both backends derive per-rank RNG
streams the same way and route the same ``_Op`` requests, every
distributed method must produce a bit-identical partition vector, the
same cut, and the same communication ledger (counts and words — not
timings) on both.  Any divergence means the two executors disagree
about the semantics of an operation, which is exactly the bug class
this matrix exists to catch.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.core.config import ScalaPartConfig
from repro.core.methods import distributed_methods
from repro.core.parallel import run_parallel
from repro.errors import CommError
from repro.graph.generators import grid2d, random_delaunay
from repro.parallel import procs_available, run_spmd

from tests.conftest import ledger_fingerprint, run_both_backends

pytestmark = pytest.mark.skipif(
    not procs_available(), reason="procs backend unavailable (no fork)"
)

SEED = 11
#: small so each case stays fast — ScalaPart does a full V-cycle per run
CFG = ScalaPartConfig(coarsest_iters=40, smooth_iters=4)

METHODS = distributed_methods()
GRAPHS = [
    ("delaunay400-p2", lambda: random_delaunay(400, seed=3), 2),
    ("delaunay400-p4", lambda: random_delaunay(400, seed=3), 4),
    ("grid20x20-p4", lambda: grid2d(20, 20), 4),
]


def _kwargs(spec):
    return {"config": CFG} if spec.accepts_config else {}


class TestBackendParity:
    @pytest.mark.parametrize("spec", METHODS, ids=[s.cli_name for s in METHODS])
    @pytest.mark.parametrize(
        "gname,gfn,p", GRAPHS, ids=[g[0] for g in GRAPHS]
    )
    def test_methods_bit_identical_across_backends(self, spec, gname, gfn, p):
        mesh = gfn()
        sim, procs = run_both_backends(
            spec, mesh.graph, p, seed=SEED, coords=mesh.coords, **_kwargs(spec)
        )

        # partition vector and cut: byte-identical
        assert sim.bisection.side.tobytes() == procs.bisection.side.tobytes()
        assert sim.cut_size == procs.cut_size

        ts, tp = sim.extras["trace"], procs.extras["trace"]
        assert ts.backend == "sim" and tp.backend == "procs"

        # same collective sequence implies the same op counts and the
        # same words moved, phase by phase (timings are not comparable)
        assert ts.messages == tp.messages
        assert ts.collectives == tp.collectives
        assert ts.words_sent == tp.words_sent
        assert json.dumps(ledger_fingerprint(ts.comm_stats)) == json.dumps(
            ledger_fingerprint(tp.comm_stats)
        )

        # the procs run really fanned out to one OS process per rank
        assert len(set(tp.pids)) == p

    def test_phase_labels_agree(self):
        """Both backends see the same ``set_phase`` stream.  Sim only
        materialises a phase once a modelled cost is charged under it,
        while procs measures real wall time in *every* phase, so sim's
        labels are a subset of procs' labels (values differ: model vs
        wall)."""
        mesh = random_delaunay(400, seed=3)
        sim, procs = run_both_backends(
            "ScalaPart", mesh.graph, 4, seed=SEED, coords=mesh.coords,
            config=CFG,
        )
        ts, tp = sim.extras["trace"], procs.extras["trace"]
        assert set(ts.phases) <= set(tp.phases)
        assert "embed" in {p.split("/")[0] for p in tp.phases}


class TestProcsPropertyAndDeterminism:
    @pytest.mark.parametrize("spec", METHODS, ids=[s.cli_name for s in METHODS])
    @pytest.mark.parametrize("p", [2, 4])
    def test_valid_balanced_cut_and_same_seed_rerun(self, spec, p):
        """Property: on real processes every registered distributed
        method yields a valid partition within its balance bound, and a
        same-seed rerun is bit-identical."""
        mesh = random_delaunay(300, seed=5)

        def run():
            return run_parallel(spec, mesh.graph, p, coords=mesh.coords,
                                seed=SEED, backend="procs", **_kwargs(spec))

        a = run()
        bound = spec.balance_bound if spec.balance_bound is not None else 0.15
        a.validate(bound)
        side = np.asarray(a.bisection.side)
        assert set(np.unique(side)) <= {0, 1}
        assert 0 < int(side.sum()) < side.size  # both sides non-empty

        b = run()
        assert a.bisection.side.tobytes() == b.bisection.side.tobytes()
        assert a.cut_size == b.cut_size
        assert json.dumps(
            ledger_fingerprint(a.extras["trace"].comm_stats)
        ) == json.dumps(ledger_fingerprint(b.extras["trace"].comm_stats))


# ----------------------------------------------------------------------
# per-op differential matrix: every collective kind, sendrecv and split
# ----------------------------------------------------------------------

OP_P = 4


def _fold(a, b):
    """Non-commutative module-level reduction (fold order is visible)."""
    return a * 2 + b


def _every_op(comm, op):
    """One program posting all 11 collective kinds plus sendrecv."""
    r, p = comm.rank, comm.size
    out = {}
    yield from comm.barrier()
    out["bcast"] = yield from comm.bcast(
        {"arr": np.arange(3) + r, "tag": f"from {r}"}, root=2)
    out["reduce"] = yield from comm.reduce(np.arange(4.0) * (r + 1),
                                           op=op, root=1)
    out["allreduce"] = yield from comm.allreduce((r + 1) * 1.5, op=op)
    out["scan"] = yield from comm.scan(np.full(2, r + 1), op=op)
    out["gather"] = yield from comm.gather((r, np.full(2, r)), root=3)
    out["allgather"] = yield from comm.allgather([r, r * r])
    out["scatter"] = yield from comm.scatter(
        [np.full(i + 1, 10 * i) for i in range(p)] if r == 0 else None,
        root=0)
    out["alltoall"] = yield from comm.alltoall([(r, j) for j in range(p)])
    out["exchange"] = yield from comm.exchange(
        {(r + 1) % p: np.arange(r + 1), (r + 2) % p: f"x{r}"})
    out["sendrecv"] = yield from comm.sendrecv(
        np.full(3, r), dest=(r + 1) % p, source=(r - 1) % p, tag=5)
    sub = yield from comm.split(None if r == 1 else r % 2, key=-r)
    if sub is not None:
        out["split"] = (sub.rank, sub.size)
        out["sub_allreduce"] = yield from sub.allreduce(r + 1, op=op)
        out["sub_allgather"] = yield from sub.allgather(r)
        out["sub_scan"] = yield from sub.scan(r + 1, op=op)
    return out


REDUCTIONS = [
    ("sum", "sum"),
    ("max", "max"),
    ("module-function", _fold),
    ("lambda", lambda a, b: a - 2 * b),
]


class TestOpParity:
    @pytest.mark.parametrize("op", [r[1] for r in REDUCTIONS],
                             ids=[r[0] for r in REDUCTIONS])
    def test_every_op_repr_identical(self, op):
        sim = run_spmd(_every_op, OP_P, op, backend="sim").values
        procs = run_spmd(_every_op, OP_P, op, backend="procs").values
        assert repr(sim) == repr(procs)

    def test_split_groups_by_key_then_rank(self):
        vals = run_spmd(_every_op, OP_P, "sum", backend="sim").values
        # colour 0 holds world ranks 0 and 2; key -2 puts rank 2 first
        assert vals[2]["split"] == (0, 2) and vals[0]["split"] == (1, 2)
        assert vals[3]["split"] == (0, 1)
        assert "split" not in vals[1]


def _bad(comm, case):
    """One rank program per CommError path of the op core."""
    r, p = comm.rank, comm.size
    if case == "mismatched-kinds":
        if r == 0:
            yield from comm.barrier()  # repro: lint-ok[SP102] deliberate bug
        else:
            yield from comm.bcast(r)  # repro: lint-ok[SP102]
    elif case == "mismatched-roots":
        yield from comm.bcast(r, root=0 if r == 0 else 1)
    elif case.startswith("root"):
        kind, root = case.split(":")[1:]
        root = int(root)
        if kind == "bcast":
            yield from comm.bcast(r, root=root)
        elif kind == "reduce":
            yield from comm.reduce(r, root=root)
        elif kind == "gather":
            yield from comm.gather(r, root=root)
        else:
            yield from comm.scatter(list(range(p)), root=root)
    elif case == "scatter-length":
        yield from comm.scatter(list(range(p - 1)) if r == 0 else None)
    elif case == "alltoall-length":
        yield from comm.alltoall(list(range(p - 1)))
    elif case == "exchange-self":
        yield from comm.exchange({r: 1})
    elif case == "exchange-range":
        yield from comm.exchange({p: 1})
    elif case == "exchange-not-dict":
        yield from comm.exchange([1])
    elif case == "send-dest":
        yield from comm.send(r, dest=p)
    elif case == "recv-source":
        yield from comm.recv(source=p)
    elif case == "unknown-op":
        yield from comm.allreduce(1, op="median")
    else:  # shape mismatch
        yield from comm.allreduce(np.zeros(r + 1))
    return r


ERROR_CASES = [
    "mismatched-kinds", "mismatched-roots",
    "root:bcast:-1", "root:bcast:4", "root:reduce:-1", "root:reduce:4",
    "root:gather:4", "root:scatter:-1",
    "scatter-length", "alltoall-length",
    "exchange-self", "exchange-range", "exchange-not-dict",
    "send-dest", "recv-source", "unknown-op", "shape-mismatch",
]


class TestErrorParity:
    @pytest.mark.parametrize("case", ERROR_CASES)
    def test_same_comm_error_on_both_backends(self, case):
        errors = []
        for backend in ("sim", "procs"):
            # the sanitizer's ledger history is a sim-only diagnostic
            with pytest.raises(CommError) as info:
                run_spmd(_bad, OP_P, case, backend=backend, sanitize=False)
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("case,kind", [
        ("root:bcast:-1", "bcast"), ("root:reduce:4", "reduce"),
        ("root:gather:4", "gather"), ("root:scatter:-1", "scatter"),
    ])
    def test_out_of_range_root_is_rejected(self, case, kind):
        root = case.split(":")[2]
        with pytest.raises(CommError,
                           match=f"{kind} root {root} out of range"):
            run_spmd(_bad, OP_P, case, backend="sim")

    def test_unpicklable_payload_fails_fast_at_the_poster(self):
        def prog(comm):
            return (yield from comm.gather(lambda: comm.rank))

        t0 = time.monotonic()
        with pytest.raises(CommError, match="gather"):
            run_spmd(prog, 2, backend="procs")
        assert time.monotonic() - t0 < 10.0
