"""Per-rule fixture tests for the SPMD static lint (SP101-SP106).

Each rule gets a bad fixture it must fire on and a good fixture it
must stay silent on, plus suppression, selection, JSON, and CLI
round-trips.
"""

import json
import textwrap

import pytest

from repro.analysis import (
    RULES,
    Finding,
    findings_to_json,
    lint_paths,
    lint_source,
)
from repro.cli import main as cli_main


def lint(src):
    return lint_source(textwrap.dedent(src), "<test>")


def codes(src):
    return [f.code for f in lint(src)]


class TestSP101Undriven:
    def test_fires_on_missing_yield_from(self):
        fs = lint("""
            def prog(comm):
                comm.send(1, dest=0)
                yield from comm.barrier()
        """)
        assert [f.code for f in fs] == ["SP101"]
        assert fs[0].line == 3
        assert "yield from" in fs[0].message

    def test_fires_on_bare_collective(self):
        assert codes("""
            def prog(comm):
                comm.barrier()
                return (yield from comm.allreduce(1))
        """) == ["SP101"]

    def test_silent_when_driven(self):
        assert codes("""
            def prog(comm):
                yield from comm.send(1, dest=0)
                got = yield from comm.recv(source=0)
                return got
        """) == []

    def test_silent_on_non_comm_receiver(self):
        # string .split() and similar must not fire
        assert codes("""
            def prog(comm, line):
                parts = line.split()
                yield from comm.barrier()
                return parts
        """) == []


class TestSP102RankDependentCollective:
    def test_fires_on_direct_rank_branch(self):
        fs = lint("""
            def prog(comm):
                if comm.rank == 0:
                    yield from comm.barrier()
        """)
        assert [f.code for f in fs] == ["SP102"]

    def test_fires_on_tainted_variable(self):
        assert codes("""
            def prog(comm):
                me = comm.rank
                if me > 2:
                    yield from comm.allreduce(1)
        """) == ["SP102"]

    def test_silent_on_unconditional_collective(self):
        assert codes("""
            def prog(comm):
                x = 1 if comm.rank == 0 else 2
                return (yield from comm.allreduce(x))
        """) == []

    def test_silent_on_guarded_subcommunicator(self):
        # the canonical split idiom: every member of `sub` enters the
        # branch, so sub's collective schedule is consistent
        assert codes("""
            def prog(comm):
                sub = yield from comm.split(0 if comm.rank < 2 else None)
                if sub is not None:
                    total = yield from sub.allreduce(comm.rank)
                    return total
        """) == []

    def test_fires_on_world_collective_in_rank_branch(self):
        assert codes("""
            def prog(comm):
                if comm.rank % 2 == 0:
                    yield from comm.allgather(1)
        """) == ["SP102"]


class TestSP103GlobalRNG:
    def test_fires_on_np_random(self):
        fs = lint("""
            import numpy as np

            def jitter(n):
                return np.random.rand(n)
        """)
        assert [f.code for f in fs] == ["SP103"]

    def test_fires_on_stdlib_random(self):
        assert codes("""
            import random

            def pick(xs):
                return random.choice(xs)
        """) == ["SP103"]

    def test_fires_through_import_alias(self):
        assert codes("""
            import numpy

            def f():
                return numpy.random.uniform()
        """) == ["SP103"]

    def test_silent_on_seeded_generator(self):
        assert codes("""
            import numpy as np

            def f(seed):
                rng = np.random.default_rng(seed)
                return rng.random(4)
        """) == []

    def test_silent_on_unrelated_random_attr(self):
        assert codes("""
            def f(rng):
                return rng.random(4)
        """) == []


class TestSP104MutateAfterSend:
    def test_fires_on_mutation_after_send(self):
        fs = lint("""
            import numpy as np

            def prog(comm):
                buf = np.zeros(4)
                yield from comm.send(buf, dest=1)
                buf[0] = 1.0
                yield from comm.barrier()
        """)
        assert [f.code for f in fs] == ["SP104"]
        assert "buf" in fs[0].message

    def test_fires_on_mutator_method(self):
        assert codes("""
            def prog(comm, buf):
                yield from comm.isend(buf, dest=1)
                buf.fill(0)
                yield from comm.barrier()
        """) == ["SP104"]

    def test_silent_when_mutation_in_other_branch(self):
        # only one arm executes: send-then-mutate never happens
        assert codes("""
            def prog(comm, buf):
                if comm.rank == 0:
                    yield from comm.send(buf, dest=1)
                else:
                    buf[0] = 1.0
                    got = yield from comm.recv(source=0)
                    return got
        """) == []

    def test_fires_across_loop_iterations(self):
        assert codes("""
            def prog(comm, buf):
                for _ in range(3):
                    yield from comm.send(buf, dest=1)
                    buf[0] = 1.0
        """) == ["SP104"]

    def test_fires_on_del_item(self):
        assert codes("""
            def prog(comm, buf):
                yield from comm.send(buf, dest=1)
                del buf[0]
                yield from comm.barrier()
        """) == ["SP104"]

    def test_silent_after_rebind(self):
        # rebinding the name breaks the alias: the sent object is safe
        assert codes("""
            import numpy as np

            def prog(comm):
                buf = np.zeros(4)
                yield from comm.send(buf, dest=1)
                buf = np.ones(4)
                buf[0] = 2.0
                yield from comm.barrier()
        """) == []


class TestSP105SetOrderPayload:
    def test_fires_on_set_iteration_in_comm_function(self):
        fs = lint("""
            def prog(comm, nbrs):
                nbrs = set(nbrs)
                for b in nbrs:
                    yield from comm.send(b, dest=b)
        """)
        assert "SP105" in [f.code for f in fs]

    def test_fires_on_list_built_from_set(self):
        assert codes("""
            def prog(comm, nbrs):
                order = list(set(nbrs))
                for i, b in enumerate(order):
                    yield from comm.send(i, dest=0)
        """) == ["SP105"]

    def test_silent_on_sorted_set(self):
        assert codes("""
            def prog(comm, nbrs):
                nbrs = set(nbrs)
                for b in sorted(nbrs):
                    yield from comm.send(b, dest=b)
        """) == []

    def test_silent_outside_comm_functions(self):
        # plain helpers may iterate sets freely
        assert codes("""
            def total(xs):
                acc = 0
                for x in {1, 2, 3}:
                    acc += x
                return acc
        """) == []


class TestSP106SwallowedFault:
    def test_fires_on_silent_pass(self):
        fs = lint("""
            from repro.errors import CommError
            def run():
                try:
                    risky()
                except CommError:
                    pass
        """)
        assert [f.code for f in fs] == ["SP106"]
        assert "CommError" in fs[0].message

    def test_fires_inside_tuple_clause(self):
        assert codes("""
            from repro.errors import ReproError
            def run():
                try:
                    risky()
                except (ValueError, ReproError):
                    fallback()
        """) == ["SP106"]

    def test_fires_when_bound_but_unused(self):
        assert codes("""
            from repro import errors
            def run():
                try:
                    risky()
                except errors.RankFailure as exc:
                    cleanup()
        """) == ["SP106"]

    def test_silent_on_reraise(self):
        assert codes("""
            from repro.errors import CommError
            def run():
                try:
                    risky()
                except CommError:
                    raise
        """) == []

    def test_silent_on_conversion(self):
        assert codes("""
            from repro.errors import DeadlockError
            def run():
                try:
                    risky()
                except DeadlockError as exc:
                    raise RuntimeError("converted") from exc
        """) == []

    def test_silent_when_exception_is_used(self):
        assert codes("""
            from repro.errors import ReproError
            def run():
                try:
                    risky()
                except ReproError as exc:
                    report.append(str(exc))
        """) == []

    def test_silent_on_unrelated_exception(self):
        assert codes("""
            def run():
                try:
                    risky()
                except ValueError:
                    pass
        """) == []

    def test_suppression_comment(self):
        assert codes("""
            from repro.errors import CommError
            def run():
                try:
                    risky()
                except CommError:  # repro: lint-ok[SP106]
                    pass
        """) == []


class TestSuppressions:
    def test_trailing_comment_suppresses(self):
        assert codes("""
            def prog(comm):
                comm.send(1, dest=0)  # repro: lint-ok[SP101]
                yield from comm.barrier()
        """) == []

    def test_standalone_previous_line_suppresses(self):
        assert codes("""
            def prog(comm):
                # repro: lint-ok[SP101]
                comm.send(1, dest=0)
                yield from comm.barrier()
        """) == []

    def test_bare_lint_ok_suppresses_all_codes(self):
        assert codes("""
            def prog(comm):
                comm.send(1, dest=0)  # repro: lint-ok
                yield from comm.barrier()
        """) == []

    def test_wrong_code_does_not_suppress(self):
        # the SP101 still fires, and the mismatched suppression is
        # itself reported stale (SP099)
        assert codes("""
            def prog(comm):
                comm.send(1, dest=0)  # repro: lint-ok[SP103]
                yield from comm.barrier()
        """) == ["SP101", "SP099"]


class TestApi:
    def test_every_rule_has_a_hint(self):
        assert set(RULES) == {
            "SP000", "SP099", "SP101", "SP102", "SP103", "SP104", "SP105",
            "SP106", "SP107", "SP108", "SP109", "SP110", "SP111", "SP112",
        }
        for rule in RULES.values():
            assert rule.hint

    def test_finding_format_and_dict(self):
        fs = lint("""
            def prog(comm):
                comm.barrier()
                yield from comm.barrier()
        """)
        (f,) = fs
        assert isinstance(f, Finding)
        text = f.format()
        assert "<test>:3" in text and "SP101" in text
        d = f.to_dict()
        assert d["code"] == "SP101" and d["line"] == 3

    def test_findings_to_json_round_trip(self):
        fs = lint("""
            def prog(comm):
                comm.barrier()
                yield from comm.barrier()
        """)
        data = json.loads(findings_to_json(fs))
        assert len(data) == 1 and data[0]["code"] == "SP101"

    def test_select_and_ignore(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(textwrap.dedent("""
            import random

            def prog(comm):
                comm.send(random.random(), dest=0)
                yield from comm.barrier()
        """))
        all_codes = {f.code for f in lint_paths([str(bad)])}
        assert all_codes == {"SP101", "SP103"}
        only101 = lint_paths([str(bad)], select={"SP101"})
        assert {f.code for f in only101} == {"SP101"}
        no103 = lint_paths([str(bad)], ignore={"SP103"})
        assert {f.code for f in no103} == {"SP101"}

    def test_syntax_error_is_reported_not_raised(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        fs = lint_paths([str(broken)])
        assert len(fs) == 1 and fs[0].code == "SP000"


class TestCli:
    def _write_bad(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(textwrap.dedent("""
            def prog(comm):
                comm.barrier()
                yield from comm.barrier()
        """))
        return bad

    def test_exit_one_on_findings(self, tmp_path, capsys):
        bad = self._write_bad(tmp_path)
        assert cli_main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "SP101" in out

    def test_exit_zero_on_clean(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("def f():\n    return 1\n")
        assert cli_main(["lint", str(good)]) == 0

    def test_json_format(self, tmp_path, capsys):
        bad = self._write_bad(tmp_path)
        assert cli_main(["lint", str(bad), "--format", "json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data[0]["code"] == "SP101"

    def test_ignore_flag(self, tmp_path):
        bad = self._write_bad(tmp_path)
        assert cli_main(["lint", str(bad), "--ignore", "SP101"]) == 0
