"""Program walker of the SPMD checker: the rank-schedule and
posted-buffer rules (SP102, SP104, SP107–SP112).

:mod:`repro.analysis.lint` owns the rule table, the suppressions and
the purely syntactic rules; this module supplies every rule that needs
facts about a whole rank program.  It builds an index over every parsed
file, resolves ``yield from helper(...)`` calls across modules
(including the stage singletons like ``EMBED_STAGE.run_dist`` and the
registry's distributed entry points), and abstract-interprets each root
rank program into an ordered **communication summary** — the sequence
of comm ops it posts, with tag/peer expressions and the loop/branch
structure they sit under.  One rank taint, one set-order helper and one
posted-buffer scan feed all of these rules, so every finding has
exactly one owner:

======  ================================================================
SP102   a parent-communicator collective under a rank-dependent branch
        of the function that posts it
SP104   the directly-sent name mutated before delivery
SP107   a point-to-point op with no tag-compatible counterpart anywhere
        in the program — the recv blocks forever (or the send is never
        consumed)
SP108   the other collective-count divergences: a *subcommunicator*
        collective inside a rank-dependent branch that is not its
        membership guard, a collective reached through a call under a
        rank-dependent branch, or a collective inside a loop whose trip
        count depends on ``comm.rank``
SP109   a send/recv tag or peer expression that depends on unordered
        (set-derived) iteration — rank A and rank B can disagree on who
        talks to whom
SP110   an unconditional recv whose every matching send occurs later in
        program order — the static twin of the runtime
        :class:`~repro.errors.DeadlockError` (all ranks block on the
        recv, nobody reaches the send)
SP111   a buffer that *aliases* a posted payload (a view, reshape,
        ``np.asarray`` alias or the base of a sent slice) mutated before
        delivery — the static twin of the sanitizer's checksum catch
SP112   perf discipline in the committed hot kernels: ``np.add.at``
        where ``np.bincount`` is the established bit-identical fast
        path, and array allocation inside the iteration loops of
        functions on the hot-kernel list (``BENCH_kernels.json`` locks
        those paths in)
======  ================================================================

Every generator function is walked at least once: as a root, inlined
at a call site, or — when only reachable past the inline depth cap or
through a call cycle — on its own, for the schedule rules.

``comm.set_phase(...)`` only relabels the engine's phase accounting;
it delivers nothing, so a payload stays posted across it (the runtime
sanitizer raises on the same mutation).  Receives are not tracked: a
posting ends when its first mutation is reported or the function ends.

Known unsoundness (by design, to keep the shipped tree clean):

* conditionals that do not read ``comm.rank`` are treated as
  rank-consistent — data-dependent branches on allreduce results *are*
  consistent, arbitrary data may not be;
* results of symmetric collectives (``allreduce``/``bcast``/
  ``allgather`` and the pattern helpers) cleanse rank taint;
* unresolved calls are assumed to post no communication;
* SP110 only fires on recvs outside any branch, and tag matching is
  existence-based (constant tags compared, everything else a wildcard);
* SP111 treats subscripts as views only when a slice is present
  (``a[mask]`` copies; ``a[0]`` row views are missed).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from .lint import (
    COLLECTIVE_METHODS,
    PATTERN_HELPERS,
    SEND_METHODS,
    Finding,
    LintUnit,
    _FUNC_NODES,
    _SCOPE_NODES,
    _assigned_names,
    _comm_call_op,
    _is_comm_receiver,
    _is_unordered_expr,
    _make_adder,
    _own_walk,
    _receiver_name,
    iter_python_files,
)

__all__ = [
    "check_units",
    "check_registry",
    "program_ops",
    "HOT_KERNELS",
    "ProgramIndex",
]

#: collectives whose result is bit-identical on every participating
#: rank — assigning from one *cleanses* rank taint (the canonical
#: "everyone agrees on the break" idiom in dist_kway_geometric etc.)
SYMMETRIC_OPS = frozenset({
    "allreduce", "bcast", "allgather", "barrier",
    "allgather_concat", "share_from_root",
})

#: functions whose inner loops are locked in by BENCH_kernels.json —
#: SP112 enforces the bincount/workspace discipline only here (the
#: naive oracles the kernels are tested against live in tests/oracles)
HOT_KERNELS = frozenset({
    "attractive_forces",
    "repulsive_forces_lattice",
    "repulsive_forces_bh",
    "beta_force_field",
    "lattice_stats",
    "force_directed_layout",
    "kway_geometric_assign",
})

_ALLOC_FUNCS = frozenset({
    "zeros", "ones", "empty", "full",
    "zeros_like", "ones_like", "empty_like", "full_like",
})

#: positional index of the tag argument per p2p op
_TAG_POS = {"send": 2, "isend": 2, "recv": 1, "sendrecv": 3}
#: positional indices of peer (dest/source) arguments per p2p op
_PEER_POS = {"send": (1,), "isend": (1,), "recv": (0,), "sendrecv": (1, 2)}
_PEER_KWARGS = frozenset({"dest", "source"})

_MAX_INLINE_DEPTH = 12

#: a constant tag that matches anything (non-constant tag expressions)
_WILDCARD = "*"


# ----------------------------------------------------------------------
# program index: modules, functions, methods, instances, imports
# ----------------------------------------------------------------------

def _module_name(path: str) -> Optional[str]:
    """Dotted module name for files under a ``src`` layout (or any path
    containing a ``repro`` package directory); None for loose files."""
    parts = list(Path(path).with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    for anchor in ("src", "repro"):
        if anchor in parts:
            i = parts.index(anchor)
            mod = parts[i + 1:] if anchor == "src" else parts[i:]
            if mod:
                return ".".join(mod)
    return None


@dataclass
class FuncInfo:
    """One function/method definition anywhere in the indexed program."""

    unit: LintUnit
    module: Optional[str]
    qualname: str
    node: ast.AST                      # FunctionDef / AsyncFunctionDef
    class_name: Optional[str] = None
    locals: Dict[str, "FuncInfo"] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.node.name  # type: ignore[attr-defined]

    def params(self) -> List[str]:
        a = self.node.args  # type: ignore[attr-defined]
        names = [p.arg for p in a.posonlyargs + a.args]
        if self.class_name and names and names[0] in ("self", "cls"):
            names = names[1:]
        return names


class ModuleInfo:
    def __init__(self, unit: LintUnit, name: Optional[str]) -> None:
        self.unit = unit
        self.name = name
        self.functions: Dict[str, FuncInfo] = {}
        self.classes: Dict[str, Dict[str, FuncInfo]] = {}
        self.instances: Dict[str, str] = {}    # var -> class name
        self.imports: Dict[str, Tuple[str, Optional[str]]] = {}

    def _resolve_relative(self, module: Optional[str], level: int) -> Optional[str]:
        if level == 0:
            return module
        if not self.name:
            return None
        base = self.name.split(".")
        if len(base) < level:
            return None
        base = base[:-level]
        if module:
            base += module.split(".")
        return ".".join(base) if base else None


class ProgramIndex:
    """Cross-file view of every function, class, module-level instance
    and import binding in a set of parsed units."""

    def __init__(self, units: Sequence[LintUnit]) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.by_path: Dict[str, ModuleInfo] = {}
        self.all_funcs: List[FuncInfo] = []
        for u in units:
            self._index_unit(u)

    # -- construction ---------------------------------------------------
    def _index_unit(self, unit: LintUnit) -> None:
        mi = ModuleInfo(unit, _module_name(unit.path))
        self.by_path[unit.path] = mi
        if mi.name:
            self.modules[mi.name] = mi
        for stmt in unit.tree.body:
            self._index_stmt(mi, stmt)

    def _index_stmt(self, mi: ModuleInfo, stmt: ast.stmt) -> None:
        if isinstance(stmt, _FUNC_NODES):
            mi.functions[stmt.name] = self._add_func(mi, stmt, stmt.name, None)
        elif isinstance(stmt, ast.ClassDef):
            methods: Dict[str, FuncInfo] = {}
            for sub in stmt.body:
                if isinstance(sub, _FUNC_NODES):
                    methods[sub.name] = self._add_func(
                        mi, sub, f"{stmt.name}.{sub.name}", stmt.name)
            mi.classes[stmt.name] = methods
        elif isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call):
            fn = stmt.value.func
            cls = fn.id if isinstance(fn, ast.Name) else (
                fn.attr if isinstance(fn, ast.Attribute) else None)
            if cls:
                for t in stmt.targets:
                    if isinstance(t, ast.Name):
                        mi.instances[t.id] = cls
        elif isinstance(stmt, ast.Import):
            for alias in stmt.names:
                bound = alias.asname or alias.name.split(".")[0]
                mi.imports[bound] = (alias.name if alias.asname
                                     else alias.name.split(".")[0], None)
        elif isinstance(stmt, ast.ImportFrom):
            target = mi._resolve_relative(stmt.module, stmt.level)
            if target is None:
                return
            for alias in stmt.names:
                mi.imports[alias.asname or alias.name] = (target, alias.name)
        elif isinstance(stmt, (ast.If, ast.Try)):
            # TYPE_CHECKING blocks, optional imports
            for sub in getattr(stmt, "body", []):
                self._index_stmt(mi, sub)
            for sub in getattr(stmt, "orelse", []):
                self._index_stmt(mi, sub)

    def _add_func(self, mi: ModuleInfo, node: ast.AST, qualname: str,
                  class_name: Optional[str]) -> FuncInfo:
        fi = FuncInfo(mi.unit, mi.name, qualname, node, class_name)
        self.all_funcs.append(fi)
        self._add_nested(mi, fi)
        return fi

    def _add_nested(self, mi: ModuleInfo, parent: FuncInfo) -> None:
        stack = list(ast.iter_child_nodes(parent.node))
        while stack:
            cur = stack.pop()
            if isinstance(cur, _FUNC_NODES):
                fi = FuncInfo(mi.unit, mi.name,
                              f"{parent.qualname}.{cur.name}", cur,
                              parent.class_name)
                parent.locals[cur.name] = fi
                self.all_funcs.append(fi)
                self._add_nested(mi, fi)
            elif not isinstance(cur, (ast.Lambda, ast.ClassDef)):
                stack.extend(ast.iter_child_nodes(cur))

    # -- lookup ---------------------------------------------------------
    def _function_in(self, mi: ModuleInfo, name: str,
                     hops: int = 2) -> Optional[FuncInfo]:
        if name in mi.functions:
            return mi.functions[name]
        if hops and name in mi.imports:
            mod, orig = mi.imports[name]
            tmi = self.modules.get(mod)
            if tmi is not None and orig is not None:
                return self._function_in(tmi, orig, hops - 1)
        return None

    def _instance_class(self, mi: ModuleInfo, name: str,
                        hops: int = 2) -> Optional[Tuple[ModuleInfo, str]]:
        if name in mi.instances:
            return mi, mi.instances[name]
        if hops and name in mi.imports:
            mod, orig = mi.imports[name]
            tmi = self.modules.get(mod)
            if tmi is not None and orig is not None:
                return self._instance_class(tmi, orig, hops - 1)
        return None

    def _class_method(self, mi: ModuleInfo, cls: str, attr: str,
                      hops: int = 2) -> Optional[FuncInfo]:
        if cls in mi.classes:
            return mi.classes[cls].get(attr)
        if hops and cls in mi.imports:
            mod, orig = mi.imports[cls]
            tmi = self.modules.get(mod)
            if tmi is not None and orig is not None:
                return self._class_method(tmi, orig, attr, hops - 1)
        return None

    def resolve_call(self, call: ast.Call, fi: FuncInfo) -> Optional[FuncInfo]:
        """Resolve the callee of ``yield from <call>`` to an indexed
        function, or None (opaque call)."""
        mi = self.by_path[fi.unit.path]
        func = call.func
        if isinstance(func, ast.Name):
            if func.id in fi.locals:
                return fi.locals[func.id]
            return self._function_in(mi, func.id)
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            base = func.value.id
            if base in ("self", "cls") and fi.class_name:
                return self._class_method(mi, fi.class_name, func.attr)
            inst = self._instance_class(mi, base)
            if inst is not None:
                return self._class_method(inst[0], inst[1], func.attr)
            if base in mi.imports and mi.imports[base][1] is None:
                tmi = self.modules.get(mi.imports[base][0])
                if tmi is not None:
                    return tmi.functions.get(func.attr)
        return None

    def find_function(self, path: str, name: str,
                      lineno: Optional[int] = None) -> Optional[FuncInfo]:
        """Locate a function by file + name (+ def line to disambiguate)."""
        best = None
        for fi in self.all_funcs:
            if fi.unit.path != path or fi.name != name:
                continue
            if lineno is None or fi.node.lineno == lineno:  # type: ignore[attr-defined]
                return fi
            best = best or fi
        return best

    def roots(self) -> List[FuncInfo]:
        """Generator functions nobody in the index drives with
        ``yield from`` — the rank programs handed to run_spmd."""
        called: Set[int] = set()
        for fi in self.all_funcs:
            for node in _own_walk(fi.node):
                if isinstance(node, ast.YieldFrom) \
                        and isinstance(node.value, ast.Call) \
                        and _comm_call_op(node.value) is None:
                    target = self.resolve_call(node.value, fi)
                    if target is not None:
                        called.add(id(target))
        out = []
        for fi in self.all_funcs:
            if id(fi) in called or fi.name in PATTERN_HELPERS:
                continue
            if _is_generator(fi.node):
                out.append(fi)
        return out


def _is_generator(fn: ast.AST) -> bool:
    return any(isinstance(n, (ast.Yield, ast.YieldFrom))
               for n in _own_walk(fn))


# ----------------------------------------------------------------------
# per-function environment: taint, subcomms, unordered names
# ----------------------------------------------------------------------

@dataclass
class FuncEnv:
    tainted: Set[str] = field(default_factory=set)
    subcomms: Set[str] = field(default_factory=set)
    unordered: Set[str] = field(default_factory=set)


def _reads_rank(expr: ast.AST, tainted: Set[str]) -> bool:
    """Does ``expr`` read ``comm.rank``/``comm.world_rank`` or a
    variable derived from one?"""
    for node in ast.walk(expr):
        if (isinstance(node, ast.Attribute)
                and node.attr in ("rank", "world_rank")
                and _is_comm_receiver(_receiver_name(node))):
            return True
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                and node.id in tainted:
            return True
    return False


def _is_split_result(value: ast.AST) -> bool:
    """Is ``value`` ``yield from <comm>.split(...)`` (a sub-communicator)?"""
    if isinstance(value, ast.YieldFrom):
        value = value.value
    return (isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr == "split"
            and _is_comm_receiver(_receiver_name(value.func)))


def _assign_parts(node: ast.AST):
    if isinstance(node, ast.Assign):
        return node.targets, node.value
    if isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        return [node.target], node.value
    if isinstance(node, ast.NamedExpr):
        return [node.target], node.value
    return None, None


def _symmetric_yield(value: ast.AST) -> bool:
    """``yield from comm.allreduce(...)`` and friends: the result is
    identical on every rank, so it cleanses taint."""
    if not isinstance(value, ast.YieldFrom):
        return False
    call = value.value
    if not isinstance(call, ast.Call):
        return False
    op = _comm_call_op(call)
    return op is not None and op in SYMMETRIC_OPS


def _reads_unordered(expr: ast.AST, unordered: Set[str]) -> bool:
    for node in ast.walk(expr):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "sorted":
            return False
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                and node.id in unordered:
            return True
    return False


def _func_env(fn: ast.AST) -> FuncEnv:
    env = FuncEnv()
    own = [n for n in _own_walk(fn)]
    cleansed: Set[str] = set()
    for _round in range(3):  # cheap fixpoint: taint chains are short
        before = (len(env.tainted), len(env.subcomms), len(env.unordered))
        for node in own:
            targets, value = _assign_parts(node)
            if value is not None:
                names = [n for t in targets for n in _assigned_names(t)]
                if _is_split_result(value) or (
                        isinstance(value, ast.Name)
                        and value.id in env.subcomms):
                    env.subcomms.update(names)
                if _symmetric_yield(value):
                    cleansed.update(names)
                elif _reads_rank(value, env.tainted):
                    env.tainted.update(names)
                if _is_unordered_expr(value, env.unordered):
                    env.unordered.update(names)
            if isinstance(node, (ast.For, ast.AsyncFor)) \
                    and _is_unordered_expr(node.iter, env.unordered):
                env.unordered.update(_assigned_names(node.target))
        if (len(env.tainted), len(env.subcomms),
                len(env.unordered)) == before:
            break
    env.tainted -= cleansed
    # a subcomm handle is rank-dependent only in its None-ness (the
    # membership guards handle that); reads of 'sub.size' etc. are
    # identical on every member rank, so the *name* is not taint
    env.tainted -= env.subcomms
    return env


def _membership_guard(test: ast.AST,
                      subcomms: Set[str]) -> Tuple[Optional[str], bool]:
    """If ``test`` is a pure membership check on a subcommunicator name
    ('sub is not None', 'sub is None', 'sub', 'not sub'), return
    (name, guards_then_arm)."""
    if isinstance(test, ast.Compare) and len(test.ops) == 1 \
            and isinstance(test.left, ast.Name) \
            and test.left.id in subcomms \
            and isinstance(test.comparators[0], ast.Constant) \
            and test.comparators[0].value is None:
        if isinstance(test.ops[0], ast.IsNot):
            return test.left.id, True
        if isinstance(test.ops[0], ast.Is):
            return test.left.id, False
    if isinstance(test, ast.Name) and test.id in subcomms:
        return test.id, True
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not) \
            and isinstance(test.operand, ast.Name) \
            and test.operand.id in subcomms:
        return test.operand.id, False
    return None, False


# ----------------------------------------------------------------------
# whole-program traversal
# ----------------------------------------------------------------------

@dataclass
class CommOp:
    """One op in a flattened communication summary."""

    op: str
    kind: str            # "send" | "recv" | "sendrecv" | "collective"
    tag: object
    conditional: bool
    index: int
    node: ast.AST
    path: str


class _Cond:
    """One active rank-dependent branch or loop during traversal."""

    __slots__ = ("frame", "rank_dep", "guarded", "is_loop")

    def __init__(self, frame, rank_dep: bool, guarded: Set[Tuple[int, str]],
                 is_loop: bool) -> None:
        self.frame = frame
        self.rank_dep = rank_dep
        self.guarded = guarded
        self.is_loop = is_loop


class _Frame:
    """One inlined call during traversal."""

    __slots__ = ("fi", "env", "parent", "callsite", "sub_params")

    def __init__(self, fi: FuncInfo, env: FuncEnv, parent, callsite,
                 sub_params: Set[str]) -> None:
        self.fi = fi
        self.env = env
        self.parent = parent
        self.callsite = callsite
        self.sub_params = sub_params


class _ProtoChecker:
    def __init__(self, index: ProgramIndex,
                 add: Callable[[str, int, int, str, str], None]) -> None:
        self.index = index
        self.add = add
        self._envs: Dict[int, FuncEnv] = {}
        self.walked: Set[int] = set()    # ids of function nodes walked

    def env_of(self, fi: FuncInfo) -> FuncEnv:
        env = self._envs.get(id(fi))
        if env is None:
            env = self._envs[id(fi)] = _func_env(fi.node)
        return env

    def check_root(self, fi: FuncInfo, match_p2p: bool = True) -> None:
        run = _RootRun(self)
        run.extract(fi)
        if match_p2p:
            run.finish()

    def check_unwalked(self, units: Sequence[LintUnit]) -> None:
        """Walk every generator function no root walk reached (only
        reachable past the inline depth cap, through a call cycle, or
        not indexed at all) on its own.  Its callers' ops are missing,
        so only the schedule rules run, not the p2p matching."""
        funcs = {id(fi.node): fi for fi in self.index.all_funcs}
        for unit in units:
            module = self.index.by_path[unit.path].name
            for node in ast.walk(unit.tree):
                if not isinstance(node, _FUNC_NODES) \
                        or id(node) in self.walked or not _is_generator(node):
                    continue
                fi = funcs.get(id(node)) or FuncInfo(unit, module,
                                                     node.name, node)
                self.check_root(fi, match_p2p=False)

    def summarize(self, fi: FuncInfo) -> List[CommOp]:
        run = _RootRun(self, report=False)
        run.extract(fi)
        return run.ops


class _RootRun:
    """Extraction + checks for one root rank program."""

    def __init__(self, checker: _ProtoChecker, report: bool = True) -> None:
        self.checker = checker
        self.index = checker.index
        self.report = report
        self.ops: List[CommOp] = []
        self.conds: List[_Cond] = []
        self.stack: List[int] = []       # FuncInfo ids, recursion guard
        self._seen: Set[Tuple[int, str, int]] = set()  # (cond, path, line)

    # -- plumbing -------------------------------------------------------
    def _add(self, node: ast.AST, path: str, code: str, message: str) -> None:
        if self.report:
            self.checker.add(path, getattr(node, "lineno", 1),
                             getattr(node, "col_offset", 0) + 1,
                             code, message)

    def extract(self, fi: FuncInfo) -> None:
        frame = _Frame(fi, self.checker.env_of(fi), None, None, set())
        self.checker.walked.add(id(fi.node))
        self.stack.append(id(fi))
        self._walk_body(fi.node.body, frame)  # type: ignore[attr-defined]
        self.stack.pop()

    # -- statement walk (execution order) -------------------------------
    def _walk_body(self, body: Sequence[ast.stmt], frame: _Frame) -> None:
        for stmt in body:
            self._walk_stmt(stmt, frame)

    def _walk_stmt(self, stmt: ast.stmt, frame: _Frame) -> None:
        if isinstance(stmt, _SCOPE_NODES):
            return
        if isinstance(stmt, ast.If):
            self._scan_exprs(stmt.test, frame)
            guard, guards_then = _membership_guard(
                stmt.test, frame.env.subcomms | frame.sub_params)
            rank_dep = _reads_rank(stmt.test, frame.env.tainted)
            key = (id(frame), guard) if guard else None
            then_guard = {key} if key and guards_then else set()
            else_guard = {key} if key and not guards_then else set()
            self.conds.append(_Cond(frame, rank_dep or guard is not None,
                                    then_guard, False))
            self._walk_body(stmt.body, frame)
            self.conds.pop()
            if stmt.orelse:
                self.conds.append(_Cond(frame, rank_dep or guard is not None,
                                        else_guard, False))
                self._walk_body(stmt.orelse, frame)
                self.conds.pop()
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_exprs(stmt.iter, frame)
            rank_dep = _reads_rank(stmt.iter, frame.env.tainted)
            self.conds.append(_Cond(frame, rank_dep, set(), True))
            self._walk_body(stmt.body, frame)
            self.conds.pop()
            self._walk_body(stmt.orelse, frame)
        elif isinstance(stmt, ast.While):
            self._scan_exprs(stmt.test, frame)
            guard, guards_then = _membership_guard(
                stmt.test, frame.env.subcomms | frame.sub_params)
            rank_dep = _reads_rank(stmt.test, frame.env.tainted)
            guarded = {(id(frame), guard)} if guard and guards_then else set()
            self.conds.append(_Cond(frame, rank_dep or guard is not None,
                                    guarded, True))
            self._walk_body(stmt.body, frame)
            self.conds.pop()
            self._walk_body(stmt.orelse, frame)
        elif isinstance(stmt, ast.Try):
            self._walk_body(stmt.body, frame)
            for handler in stmt.handlers:
                self._walk_body(handler.body, frame)
            self._walk_body(stmt.orelse, frame)
            self._walk_body(stmt.finalbody, frame)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._scan_exprs(item.context_expr, frame)
            self._walk_body(stmt.body, frame)
        else:
            self._scan_exprs(stmt, frame)

    def _scan_exprs(self, root: ast.AST, frame: _Frame) -> None:
        for node in _own_walk(root):
            if isinstance(node, ast.YieldFrom) \
                    and isinstance(node.value, ast.Call):
                self._handle_call(node.value, frame)

    # -- one yield-from call --------------------------------------------
    def _handle_call(self, call: ast.Call, frame: _Frame) -> None:
        op = _comm_call_op(call)
        if op is not None:
            self._record_op(call, op, frame)
            return
        callee = self.index.resolve_call(call, frame.fi)
        if callee is None or id(callee) in self.stack \
                or len(self.stack) > _MAX_INLINE_DEPTH:
            return
        sub_params: Set[str] = set()
        comm_arg: Optional[str] = None
        params = callee.params()
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Name) and i < len(params) and (
                    _is_comm_receiver(arg.id)
                    or arg.id in frame.env.subcomms
                    or arg.id in frame.sub_params):
                comm_arg = arg.id
                if arg.id in frame.env.subcomms or arg.id in frame.sub_params:
                    sub_params.add(params[i])
                # propagate membership guards across the call boundary
                new = _Frame(callee, self.checker.env_of(callee), frame,
                             call, sub_params)
                for cond in self.conds:
                    if (id(frame), comm_arg) in cond.guarded:
                        cond.guarded.add((id(new), params[i]))
                break
        else:
            new = _Frame(callee, self.checker.env_of(callee), frame,
                         call, sub_params)
        self.checker.walked.add(id(callee.node))
        self.stack.append(id(callee))
        self._walk_body(callee.node.body, new)  # type: ignore[attr-defined]
        self.stack.pop()
        # drop guard keys that referenced the popped frame
        for cond in self.conds:
            cond.guarded = {k for k in cond.guarded if k[0] != id(new)}

    def _op_receiver(self, call: ast.Call, op: str) -> Optional[str]:
        if isinstance(call.func, ast.Attribute):
            return _receiver_name(call.func)
        # pattern helper: the communicator is the first argument
        if call.args and isinstance(call.args[0], ast.Name):
            return call.args[0].id
        return None

    def _record_op(self, call: ast.Call, op: str, frame: _Frame) -> None:
        conditional = any(not c.is_loop for c in self.conds)
        if op in COLLECTIVE_METHODS or op in PATTERN_HELPERS:
            self._check_collective(call, op, frame)
            self.ops.append(CommOp(op, "collective", None, conditional,
                                   len(self.ops), call, frame.fi.unit.path))
            return
        self._check_sp109(call, op, frame)
        kind = "sendrecv" if op == "sendrecv" else (
            "recv" if op == "recv" else "send")
        self.ops.append(CommOp(op, kind, self._tag_of(call, op), conditional,
                               len(self.ops), call, frame.fi.unit.path))

    @staticmethod
    def _tag_of(call: ast.Call, op: str):
        expr = None
        for kw in call.keywords:
            if kw.arg == "tag":
                expr = kw.value
        if expr is None:
            pos = _TAG_POS.get(op)
            if pos is not None and len(call.args) > pos:
                expr = call.args[pos]
        if expr is None:
            return 0  # engine default
        try:
            return ast.literal_eval(expr)
        except (ValueError, SyntaxError):
            return _WILDCARD

    # -- SP102 / SP108 ---------------------------------------------------
    def _check_collective(self, call: ast.Call, op: str,
                          frame: _Frame) -> None:
        receiver = self._op_receiver(call, op)
        is_sub = receiver is not None and (
            receiver in frame.env.subcomms or receiver in frame.sub_params)
        for cond in self.conds:
            if not cond.rank_dep:
                continue
            if receiver is not None and (id(frame), receiver) in cond.guarded:
                continue
            code = "SP108"
            if cond.frame is frame:
                site, path = call, frame.fi.unit.path
                if cond.is_loop:
                    msg = (f"collective '{op}' inside a loop whose trip "
                           "count depends on comm.rank — ranks post "
                           "different collective counts")
                elif is_sub:
                    msg = (f"collective '{op}' on subcommunicator "
                           f"'{receiver}' inside a rank-dependent branch "
                           "that is not its membership guard — member "
                           "ranks disagree on the collective count")
                else:
                    code = "SP102"
                    msg = (f"collective '{op}' posted inside a rank-"
                           "dependent branch — ranks will disagree on the "
                           "collective schedule")
            else:
                site, path = self._callsite_under(cond, frame)
                what = "loop" if cond.is_loop else "branch"
                msg = (f"collective '{op}' reached through this call "
                       f"inside a rank-dependent {what} — ranks will "
                       "disagree on the collective count")
            key = (id(cond), path, getattr(site, "lineno", 0))
            if key in self._seen:
                continue
            self._seen.add(key)
            self._add(site, path, code, msg)

    def _callsite_under(self, cond: _Cond, frame: _Frame):
        """The call made inside cond's frame that leads to ``frame``."""
        f = frame
        while f.parent is not None and f.parent is not cond.frame:
            f = f.parent
        if f.parent is cond.frame and f.callsite is not None:
            return f.callsite, cond.frame.fi.unit.path
        return f.callsite or f.fi.node, f.fi.unit.path

    # -- SP109 ----------------------------------------------------------
    def _check_sp109(self, call: ast.Call, op: str, frame: _Frame) -> None:
        exprs: List[ast.AST] = []
        for kw in call.keywords:
            if kw.arg in _PEER_KWARGS or kw.arg == "tag":
                exprs.append(kw.value)
        for pos in _PEER_POS.get(op, ()) + (_TAG_POS.get(op, -1),):
            if 0 <= pos < len(call.args):
                exprs.append(call.args[pos])
        for expr in exprs:
            if _reads_unordered(expr, frame.env.unordered):
                self._add(call, frame.fi.unit.path, "SP109",
                          f"'{op}' peer/tag depends on unordered (set-"
                          "derived) iteration — ranks can disagree on "
                          "the matching order")
                return

    # -- SP107 / SP110 ---------------------------------------------------
    def finish(self) -> None:
        sends = [o for o in self.ops if o.kind in ("send", "sendrecv")]
        recvs = [o for o in self.ops if o.kind in ("recv", "sendrecv")]

        def compat(a: CommOp, b: CommOp) -> bool:
            return _WILDCARD in (a.tag, b.tag) or a.tag == b.tag

        for r in self.ops:
            if r.kind != "recv":
                continue
            matches = [s for s in sends if compat(r, s)]
            if not matches:
                self._add(r.node, r.path, "SP107",
                          f"'recv' (tag {r.tag!r}) has no matching send "
                          "anywhere in this rank program")
            elif not r.conditional and all(s.index > r.index for s in matches):
                self._add(r.node, r.path, "SP110",
                          "every matching send is posted after this "
                          "unconditional recv — all ranks block here "
                          "(runtime would raise DeadlockError)")
        for s in self.ops:
            if s.kind != "send" or not recvs:
                continue
            if not any(compat(s, r) for r in recvs):
                self._add(s.node, s.path, "SP107",
                          f"'{s.op}' (tag {s.tag!r}) has no matching recv "
                          "anywhere in this rank program")


# ----------------------------------------------------------------------
# SP104 / SP111: alias-aware post-send mutation (per function)
# ----------------------------------------------------------------------

#: ndarray methods returning views of the receiver
_VIEW_METHODS = frozenset({"reshape", "ravel", "view", "transpose",
                           "swapaxes", "squeeze"})
#: numpy namespace functions that may return their argument (no copy)
_VIEW_FUNCS = frozenset({"asarray", "ascontiguousarray", "atleast_1d",
                         "atleast_2d", "atleast_3d"})
#: wrappers that hold a reference to their argument
_REF_WRAPPERS = frozenset({"Shared"})

#: container methods that mutate their receiver in place
_MUTATOR_METHODS = frozenset({
    "fill", "sort", "put", "resize", "itemset", "partition", "setflags",
    "setfield", "byteswap", "append", "extend", "insert", "pop", "clear",
    "update", "remove", "reverse", "setdefault", "add", "discard",
})


def _alias_base(expr: ast.AST) -> Optional[str]:
    """Name whose memory ``expr`` can alias, or None for fresh values."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Subscript):
        if any(isinstance(n, ast.Slice) for n in ast.walk(expr.slice)) \
                or isinstance(expr.slice, ast.Slice):
            return _alias_base(expr.value)
        return None
    if isinstance(expr, ast.Attribute) and expr.attr == "T":
        return _alias_base(expr.value)
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Attribute) and func.attr in _VIEW_METHODS:
            return _alias_base(func.value)
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None)
        if name in _VIEW_FUNCS | _REF_WRAPPERS and expr.args:
            return _alias_base(expr.args[0])
    return None


class _AliasScan:
    """Execution-order scan of one function for SP104/SP111: payloads
    posted to a send that are mutated before delivery, through the sent
    name (SP104) or through any alias of its memory (SP111)."""

    def __init__(self, path: str,
                 add: Callable[[str, int, int, str, str], None]) -> None:
        self.path = path
        self.add = add
        self._retired = 0

    def run(self, fn: ast.AST) -> None:
        self._scan(getattr(fn, "body", []), {}, {})

    # state: root_of maps name -> ultimate alias root name;
    #        posted maps root -> (line, op, directly_sent_name_or_None)
    def _find(self, root_of: Dict[str, str], name: str) -> str:
        seen = set()
        while name in root_of and name not in seen:
            seen.add(name)
            name = root_of[name]
        return name

    def _scan(self, body: Sequence[ast.stmt], root_of: Dict[str, str],
              posted: Dict[str, Tuple[int, str, Optional[str]]]) -> None:
        for stmt in body:
            if isinstance(stmt, _SCOPE_NODES):
                continue
            if isinstance(stmt, ast.If):
                self._exprs(stmt.test, root_of, posted)
                t_r, t_p = dict(root_of), dict(posted)
                e_r, e_p = dict(root_of), dict(posted)
                self._scan(stmt.body, t_r, t_p)
                self._scan(stmt.orelse, e_r, e_p)
                root_of.clear(); root_of.update(e_r); root_of.update(t_r)
                posted.clear(); posted.update(e_p); posted.update(t_p)
            elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                header = stmt.iter if isinstance(stmt, (ast.For, ast.AsyncFor)) \
                    else stmt.test
                self._exprs(header, root_of, posted)
                for _pass in range(2):
                    self._scan(stmt.body, root_of, posted)
                self._scan(stmt.orelse, root_of, posted)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    self._exprs(item.context_expr, root_of, posted)
                self._scan(stmt.body, root_of, posted)
            elif isinstance(stmt, ast.Try):
                self._scan(stmt.body, root_of, posted)
                for handler in stmt.handlers:
                    self._scan(handler.body, root_of, posted)
                self._scan(stmt.orelse, root_of, posted)
                self._scan(stmt.finalbody, root_of, posted)
            else:
                self._simple(stmt, root_of, posted)

    def _simple(self, stmt: ast.stmt, root_of, posted) -> None:
        self._exprs(stmt, root_of, posted)
        if isinstance(stmt, ast.Assign):
            base = _alias_base(stmt.value)
            for target in stmt.targets:
                self._target(target, stmt, base, root_of, posted)
        elif isinstance(stmt, ast.AugAssign):
            self._target(stmt.target, stmt, None, root_of, posted, aug=True)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._target(target, stmt, None, root_of, posted)

    def _target(self, target, stmt, base, root_of, posted,
                aug: bool = False) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._target(elt, stmt, None, root_of, posted, aug)
        elif isinstance(target, (ast.Subscript, ast.Attribute)):
            tb = _alias_base(target.value) if not isinstance(
                target.value, ast.Name) else target.value.id
            if tb is not None:
                self._mutation(stmt, tb, root_of, posted)
        elif isinstance(target, ast.Name):
            if aug:
                self._mutation(stmt, target.id, root_of, posted)
            else:
                self._rebind(target.id, base, root_of, posted)

    def _rebind(self, name: str, base: Optional[str], root_of,
                posted) -> None:
        """``name = <value>`` (or ``del name``): the object ``name`` held
        lives on only through its aliases, so it moves to a fresh root
        no source name spells, and ``name`` follows ``base``."""
        new_root = self._find(root_of, base) if base is not None else None
        old = f"{name}#{self._retired}"
        self._retired += 1
        for alias, root in root_of.items():
            if root == name:
                root_of[alias] = old
        for root, (line, op, direct) in list(posted.items()):
            if direct == name:
                posted[root] = (line, op, None)
        if name in posted:
            posted[old] = posted.pop(name)
        if new_root == name:
            new_root = old
        if new_root is None:
            root_of.pop(name, None)
        else:
            root_of[name] = new_root

    def _exprs(self, root: ast.AST, root_of, posted) -> None:
        for node in _own_walk(root):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr in _MUTATOR_METHODS \
                    and isinstance(func.value, ast.Name):
                self._mutation(node, func.value.id, root_of, posted)
            elif func.attr in ("at", "copyto", "put", "place", "putmask") \
                    and node.args and isinstance(node.args[0], ast.Name):
                self._mutation(node, node.args[0].id, root_of, posted)
            elif func.attr in SEND_METHODS \
                    and _is_comm_receiver(_receiver_name(func)):
                payload = node.args[0] if node.args else None
                if payload is None:
                    for kw in node.keywords:
                        if kw.arg == "obj":
                            payload = kw.value
                if payload is None:
                    continue
                base = _alias_base(payload)
                if base is None:
                    continue
                direct = payload.id if isinstance(payload, ast.Name) else None
                posted[self._find(root_of, base)] = (
                    node.lineno, func.attr, direct)

    def _mutation(self, node: ast.AST, name: str, root_of, posted) -> None:
        entry = posted.pop(self._find(root_of, name), None)
        if entry is None:
            return
        line, op, direct = entry
        if direct == name:
            code = "SP104"
            msg = (f"'{name}' mutated after being posted to '{op}' on line "
                   f"{line} — the receiver aliases this memory under "
                   "copy_mode='readonly'")
        else:
            code = "SP111"
            msg = (f"'{name}' aliases the payload posted to '{op}' on line "
                   f"{line} — mutating it before delivery corrupts the "
                   "message under copy_mode='readonly'")
        self.add(self.path, getattr(node, "lineno", 1),
                 getattr(node, "col_offset", 0) + 1, code, msg)


def _alias_unit(unit: LintUnit, add) -> None:
    for node in ast.walk(unit.tree):
        if isinstance(node, _FUNC_NODES):
            _AliasScan(unit.path, add).run(node)


# ----------------------------------------------------------------------
# SP112: perf discipline in the committed hot kernels (per file)
# ----------------------------------------------------------------------

def _sp112_unit(unit: LintUnit, add) -> None:
    for fn in ast.walk(unit.tree):
        if not isinstance(fn, _FUNC_NODES) or fn.name not in HOT_KERNELS:
            continue
        for node in _own_walk(fn):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "at" \
                    and isinstance(node.func.value, ast.Attribute) \
                    and node.func.value.attr == "add":
                add(unit.path, node.lineno, node.col_offset + 1, "SP112",
                    f"np.add.at in hot kernel '{fn.name}' — np.bincount "
                    "is the committed bit-identical fast path "
                    "(BENCH_kernels.json)")
        _alloc_scan(fn, unit, add)


def _alloc_scan(fn: ast.AST, unit: LintUnit, add) -> None:
    def scan(node: ast.AST, in_loop: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _SCOPE_NODES):
                continue
            loop_now = in_loop or isinstance(
                child, (ast.For, ast.AsyncFor, ast.While))
            if in_loop and isinstance(child, ast.Call) \
                    and isinstance(child.func, ast.Attribute) \
                    and child.func.attr in _ALLOC_FUNCS:
                add(unit.path, child.lineno, child.col_offset + 1, "SP112",
                    f"array allocated inside the iteration loop of hot "
                    f"kernel '{fn.name}' — hoist the workspace out of "
                    "the loop (BENCH_kernels.json locks this path in)")
            scan(child, loop_now)
    scan(fn, False)


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------

def check_units(units: Sequence[LintUnit], add) -> None:
    """Run the program walker's rules over parsed units, reporting
    through ``add`` (see :func:`repro.analysis.lint._make_adder`)."""
    index = ProgramIndex(units)
    checker = _ProtoChecker(index, add)
    for fi in index.roots():
        checker.check_root(fi)
    checker.check_unwalked(units)
    for unit in units:
        _alias_unit(unit, add)
        _sp112_unit(unit, add)


def check_registry() -> Tuple[List[Finding], List[str]]:
    """Model-check every registered MethodSpec's distributed entry
    point against the full ``repro`` package tree.

    Returns ``(findings, entry point names checked)``.
    """
    import inspect

    from ..core.methods import distributed_entry_points

    pkg_root = Path(__file__).resolve().parents[1]
    units = []
    for p in iter_python_files([pkg_root]):
        try:
            units.append(LintUnit.parse(p.read_text(encoding="utf-8"), str(p)))
        except SyntaxError:
            continue
    index = ProgramIndex(units)
    findings: List[Finding] = []
    add = _make_adder(units, findings)
    checker = _ProtoChecker(index, add)
    resolved = {str(Path(u.path).resolve()): u.path for u in units}
    names: List[str] = []
    for method, fn in distributed_entry_points():
        try:
            src = inspect.getsourcefile(fn)
            lineno = fn.__code__.co_firstlineno
        except (TypeError, AttributeError):
            continue
        if src is None:
            continue
        upath = resolved.get(str(Path(src).resolve()))
        fi = index.find_function(upath, fn.__name__, lineno) if upath else None
        if fi is None and upath is not None:
            fi = index.find_function(upath, fn.__name__)
        if fi is None:
            continue
        names.append(method)
        checker.check_root(fi)
    return findings, names


def program_ops(source: str, func: str,
                path: str = "<proto>") -> List[Tuple[str, str, object, bool]]:
    """Communication summary of one function in ``source`` —
    ``(op, kind, tag, conditional)`` per flattened op.  Test/debug aid."""
    unit = LintUnit.parse(source, path)
    index = ProgramIndex([unit])
    fi = index.find_function(path, func)
    if fi is None:
        raise ValueError(f"no function {func!r} in source")
    checker = _ProtoChecker(index, lambda *a: None)
    return [(o.op, o.kind, o.tag, o.conditional)
            for o in checker.summarize(fi)]
