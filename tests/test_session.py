"""CheckSession: the unified front door over programs, traces, and files."""

import pytest

from repro import CheckSession, TaskProgram, check_trace, run_program
from repro.checker import BasicAtomicityChecker, OptAtomicityChecker
from repro.errors import TraceError
from repro.report import ViolationReport
from repro.trace.serialize import dump_trace

from tests.conftest import write_v1_trace


RUNS = []


def _rmw(ctx):
    value = ctx.read("X")
    ctx.write("X", value + 1)


def buggy_body(ctx):
    RUNS.append(1)
    ctx.write("X", 0)
    ctx.spawn(_rmw)
    ctx.spawn(_rmw)
    ctx.sync()


def safe_body(ctx):
    def writer(inner, i):
        inner.write(("out", i), i)

    for i in range(3):
        ctx.spawn(writer, i)
    ctx.sync()


@pytest.fixture(autouse=True)
def _reset_runs():
    RUNS.clear()


def recorded_trace():
    return run_program(TaskProgram(buggy_body), record_trace=True).trace


class TestProgramSource:
    def test_check_finds_violation(self):
        report = CheckSession(TaskProgram(buggy_body)).check()
        assert set(report.locations()) == {"X"}

    def test_bare_callable_is_wrapped(self):
        assert CheckSession(buggy_body).check()

    def test_program_runs_exactly_once(self):
        session = CheckSession(TaskProgram(buggy_body))
        session.check("optimized")
        session.check("basic")
        session.check("racedetector")
        assert sum(RUNS) == 1
        assert set(session.reports) == {"optimized", "basic", "racedetector"}

    def test_program_annotations_flow_through(self):
        from repro.checker.annotations import AtomicAnnotations

        annotations = AtomicAnnotations().annotate("Y")  # X unchecked
        program = TaskProgram(buggy_body, annotations=annotations)
        assert not CheckSession(program).check()

    def test_sharded_program_source(self):
        report = CheckSession(TaskProgram(buggy_body), jobs=2).check()
        assert set(report.locations()) == {"X"}

    def test_source_kind_and_run_result(self):
        session = CheckSession(TaskProgram(buggy_body))
        assert session.source_kind == "program"
        session.check()
        assert session.run_result is not None
        assert session.dpst is not None


class TestTraceSource:
    def test_trace_checked_offline(self):
        session = CheckSession(recorded_trace())
        assert session.source_kind == "trace"
        assert set(session.check().locations()) == {"X"}

    def test_run_result_absent(self):
        assert CheckSession(recorded_trace()).run_result is None


class TestFileSource:
    @pytest.mark.parametrize("suffix", ["json", "jsonl"])
    def test_both_formats(self, tmp_path, suffix):
        path = str(tmp_path / f"trace.{suffix}")
        if suffix == "json":
            write_v1_trace(recorded_trace(), path)
        else:
            dump_trace(recorded_trace(), path)
        session = CheckSession(path)
        assert session.source_kind == "file"
        assert set(session.check().locations()) == {"X"}

    def test_sharded_file_source(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        dump_trace(recorded_trace(), path)
        report = CheckSession(path, jobs=4).check()
        assert set(report.locations()) == {"X"}

    def test_trace_property_materializes(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        trace = recorded_trace()
        dump_trace(trace, path)
        session = CheckSession(path)
        assert len(session.trace) == len(trace)
        assert session.dpst is not None


class TestCheckerSpecs:
    def test_class_and_instance_specs(self):
        trace = recorded_trace()
        by_class = CheckSession(trace, checker=OptAtomicityChecker).check()
        by_instance = CheckSession(trace).check(BasicAtomicityChecker())
        assert by_class and by_instance

    def test_checker_kwargs_forwarded(self):
        session = CheckSession(recorded_trace())
        session.check("optimized", mode="thorough")
        assert "optimized" in session.reports

    def test_check_all(self):
        reports = CheckSession(recorded_trace()).check_all("optimized", "basic")
        assert set(reports) == {"optimized", "basic"}
        assert all(isinstance(r, ViolationReport) for r in reports.values())


class TestAggregateViews:
    def test_report_merges_all_checks(self):
        session = CheckSession(recorded_trace())
        session.check("optimized")
        session.check("basic")
        merged = session.report()
        assert len(merged) >= len(session.reports["optimized"])

    def test_report_runs_default_check_on_demand(self):
        session = CheckSession(recorded_trace())
        assert session.report()
        assert "optimized" in session.reports

    def test_first_violation(self):
        violation = CheckSession(recorded_trace()).first_violation
        assert violation is not None and violation.location == "X"

    def test_first_violation_none_when_safe(self):
        assert CheckSession(TaskProgram(safe_body)).first_violation is None


class TestEngineSelection:
    @pytest.mark.parametrize("engine", ["lca", "vc", "depa"])
    def test_engines_agree(self, engine):
        report = CheckSession(recorded_trace(), engine=engine).check()
        assert set(report.locations()) == {"X"}

    def test_unknown_engine_rejected(self):
        with pytest.raises(TraceError):
            CheckSession(recorded_trace(), engine="psychic").check()


class TestErrors:
    def test_bad_source(self):
        with pytest.raises(TraceError):
            CheckSession(12345)


class TestConvenienceWrapper:
    def test_check_trace_on_every_source_shape(self, tmp_path):
        trace = recorded_trace()
        path = str(tmp_path / "t.jsonl")
        dump_trace(trace, path)
        for source in (TaskProgram(buggy_body), trace, path):
            assert set(check_trace(source).locations()) == {"X"}

    def test_check_trace_jobs(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        dump_trace(recorded_trace(), path)
        assert check_trace(path, jobs=2)
