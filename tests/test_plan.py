"""Check plans: one place validates every check option.

``CheckSession.check``, the sharded driver ``run_plan`` and ``repro
check-trace`` all run a :class:`repro.plan.CheckPlan`, so each refused
combination is refused by every entry point with the same reason text --
the table at the top of this module is the contract.  The rest covers
what the plan derives: the resolved jobs and window, the built checker,
result-cache keys (identical to the historical formula), the checkpoint
manifest, and the CLI flags spelled from the plan's fields.
"""

import json
import os
import pickle
from dataclasses import FrozenInstanceError

import pytest

from repro import CheckSession, TaskProgram, run_program
from repro.cache import file_digest, result_cache_key, source_digest
from repro.checker.sharded import run_plan
from repro.checker.streaming import DEFAULT_WINDOW, StreamingChecker
from repro.cli import main
from repro.errors import CheckerError, TraceError
from repro.plan import PLAN_FIELDS, CheckPlan, UsageError, default_jobs
from repro.trace.serialize import dump_trace


def _rmw(ctx):
    value = ctx.read("X")
    ctx.write("X", value + 1)


def buggy_body(ctx):
    ctx.write("X", 0)
    ctx.spawn(_rmw)
    ctx.spawn(_rmw)
    ctx.sync()


@pytest.fixture
def trace_file(tmp_path):
    path = str(tmp_path / "t.jsonl")
    trace = run_program(TaskProgram(buggy_body), record_trace=True).trace
    dump_trace(trace, path)
    return path


# ---------------------------------------------------------------------------
# Refusals: one table, three entry points
# ---------------------------------------------------------------------------

#: (id, check keywords, check-trace flags, exception type, shared reason
#: text).
REFUSALS = [
    (
        "window-without-streaming",
        {"window": 8},
        ["--window", "8"],
        UsageError,
        "window only applies to streaming checks",
    ),
    (
        "resume-without-checkpoint",
        {"resume": True},
        ["--resume"],
        UsageError,
        "resuming only applies to checkpointed checks",
    ),
    (
        "jobs-below-one",
        {"jobs": -1},
        ["--jobs", "-1"],
        TraceError,
        "jobs must be >= 1",
    ),
    (
        "velodrome-sharded",
        {"checker": "velodrome", "jobs": 2},
        ["--checker", "velodrome", "--jobs", "2"],
        CheckerError,
        "is not location-sharded",
    ),
] + [
    (
        f"streaming-{name}",
        {"checker": name, "streaming": True},
        ["--checker", name, "--streaming"],
        CheckerError,
        "cannot stream",
    )
    for name in ("basic", "velodrome", "regiontrack")
]

REFUSAL_IDS = [row[0] for row in REFUSALS]


class TestRefusalTable:
    @pytest.mark.parametrize(
        "options, error, reason",
        [(row[1], row[3], row[4]) for row in REFUSALS],
        ids=REFUSAL_IDS,
    )
    def test_session_check(self, trace_file, options, error, reason):
        with pytest.raises(error, match=reason):
            CheckSession(trace_file).check(**options)

    @pytest.mark.parametrize(
        "options, error, reason",
        [(row[1], row[3], row[4]) for row in REFUSALS],
        ids=REFUSAL_IDS,
    )
    def test_check_sharded(self, trace_file, options, error, reason):
        # The sharded driver runs plans only: the refusal happens while
        # the plan is built, before run_plan sees the trace.
        with pytest.raises(error, match=reason):
            run_plan(CheckPlan.from_options(options), trace_file)

    @pytest.mark.parametrize(
        "flags, error, reason",
        [(row[2], row[3], row[4]) for row in REFUSALS],
        ids=REFUSAL_IDS,
    )
    def test_check_trace_cli(self, trace_file, flags, error, reason):
        # Usage refusals become usage errors spelled with the CLI's own
        # flags; every other refusal propagates unchanged.
        expected = SystemExit if error is UsageError else error
        with pytest.raises(expected, match=reason):
            main(["check-trace", trace_file, *flags])

    def test_cli_spells_usage_errors_with_flags(self, trace_file):
        with pytest.raises(SystemExit) as window:
            main(["check-trace", trace_file, "--window", "8"])
        assert str(window.value) == (
            "--window needs --streaming: the window only applies to "
            "streaming checks"
        )
        with pytest.raises(SystemExit) as resume:
            main(["check-trace", trace_file, "--resume"])
        assert str(resume.value).startswith(
            "--resume needs --checkpoint DIR: "
        )

    def test_usage_error_names_plan_fields(self):
        with pytest.raises(UsageError) as refused:
            CheckPlan(resume=True)
        assert (refused.value.option, refused.value.needs) == (
            "resume",
            "checkpoint_dir",
        )
        assert str(refused.value).startswith(
            "resume=True needs checkpoint_dir=DIR: "
        )

    def test_refused_before_the_checkpoint_directory_exists(self, tmp_path):
        ck = str(tmp_path / "ck")
        with pytest.raises(CheckerError, match="not location-sharded"):
            CheckPlan(checker="velodrome", jobs=2, checkpoint_dir=ck)
        assert not os.path.exists(ck)

    def test_bad_worker_policy_refused_at_any_jobs(self):
        with pytest.raises(CheckerError, match="on_shard_failure"):
            CheckPlan(on_shard_failure="ignore")


# ---------------------------------------------------------------------------
# What the plan derives
# ---------------------------------------------------------------------------


class TestDerived:
    def test_plan_is_frozen(self):
        with pytest.raises(FrozenInstanceError):
            CheckPlan().jobs = 2

    def test_jobs_none_means_one_per_cpu(self):
        assert CheckPlan(jobs=None).jobs == default_jobs()

    @pytest.mark.parametrize(
        "window, expected", [(None, DEFAULT_WINDOW), (0, None), (8, 8)]
    )
    def test_streaming_wraps_checker_once(self, window, expected):
        plan = CheckPlan(
            streaming=True, window=window, checker_kwargs={"mode": "thorough"}
        )
        assert plan.sweep_window == expected
        assert isinstance(plan.analysis, StreamingChecker)
        assert plan.analysis.window == expected
        assert plan.analysis.inner.mode == "thorough"
        assert plan.checker_name == "streaming"

    def test_checker_kwargs_build_an_instance(self):
        plan = CheckPlan(checker_kwargs={"mode": "thorough"})
        assert plan.analysis.mode == "thorough"
        assert CheckPlan().analysis == "optimized"

    def test_cache_key_matches_the_historical_formula(self):
        digest = "file:" + "0" * 64
        key, meta = CheckPlan(engine="vc").cache_entry(digest, True)
        assert key == result_cache_key(digest, "optimized", "vc", False, True)
        assert meta == {
            "trace": digest,
            "checker": "optimized",
            "engine": "vc",
            "strict": True,
        }
        thorough = CheckPlan(checker_kwargs={"mode": "thorough"})
        key, _ = thorough.cache_entry(digest, False)
        token = 'optimized?{"mode": "thorough"}'
        assert key == result_cache_key(digest, token, "lca", False, False)

    def test_cache_bypass_reasons(self):
        from repro.checker import OptAtomicityChecker
        from repro.checker.annotations import AtomicAnnotations

        assert CheckPlan().cache_bypass(None) == ""
        assert "streaming" in CheckPlan(streaming=True).cache_bypass(None)
        assert "content-addressable" in CheckPlan(
            checker=OptAtomicityChecker()
        ).cache_bypass(None)
        prefilter = CheckPlan(static_prefilter=True)
        assert "prefilter" in prefilter.cache_bypass(None)
        assert "annotations" in CheckPlan().cache_bypass(
            AtomicAnnotations().annotate("X")
        )

    def test_pickled_plan_drops_the_lint_target(self):
        plan = CheckPlan(static_prefilter=lambda ctx: None, jobs=2)
        copy = pickle.loads(pickle.dumps(plan))
        assert copy.static_prefilter is False
        assert copy.jobs == 2 and copy.analysis == "optimized"

    def test_checkpoint_manifest_is_keyed_like_the_cache(
        self, trace_file, tmp_path
    ):
        ck = str(tmp_path / "ck")
        session = CheckSession(trace_file)
        session.check(
            checkpoint_dir=ck, cache_dir=str(tmp_path / "rc"), mode="thorough"
        )
        manifest_path = os.path.join(ck, "run.json")
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        assert manifest["trace"] == "file:" + file_digest(trace_file)
        assert manifest["token"] == session.plan.checker_token
        assert manifest["checker"] == "optimized"
        assert manifest["jobs"] == 1

    def test_source_digest_shapes(self, trace_file):
        session = CheckSession(trace_file)
        assert source_digest(session._sharded_source()).startswith("file:")
        assert source_digest(session.trace).startswith("trace:")

    def test_session_keeps_the_last_plan(self, trace_file):
        session = CheckSession(trace_file, jobs=2)
        session.check(streaming=True, window=0)
        assert session.plan.jobs == 2
        assert session.plan.streaming and session.plan.sweep_window is None


# ---------------------------------------------------------------------------
# One list of keywords: from_options and the CLI derive from the fields
# ---------------------------------------------------------------------------


class TestOneKeywordList:
    def test_from_options_splits_plan_fields_from_checker_kwargs(self):
        plan = CheckPlan.from_options({"jobs": 2, "mode": "thorough"})
        assert plan.jobs == 2
        assert plan.checker_kwargs == {"mode": "thorough"}

    def test_defaults_fill_missing_and_none_options(self):
        plan = CheckPlan.from_options(
            {"checker": None, "engine": "vc"},
            checker="basic",
            jobs=3,
            engine="depa",
        )
        assert (plan.checker, plan.jobs, plan.engine) == ("basic", 3, "vc")

    def test_session_check_takes_no_keyword_of_its_own(self):
        # Every keyword besides the positional checker goes to the plan.
        import inspect

        parameters = inspect.signature(CheckSession.check).parameters
        assert list(parameters) == ["self", "checker", "options"]

    def test_check_trace_has_one_flag_per_plan_field(self):
        from repro.cli import _plan_options, build_parser

        args = build_parser().parse_args(["check-trace", "t.jsonl"])
        options = _plan_options(args)
        assert set(options) == set(PLAN_FIELDS)
        # The flags' defaults are the plan's own.
        default = CheckPlan()
        assert options == {name: getattr(default, name) for name in PLAN_FIELDS}

    def test_usage_error_spelled_by_a_front_end(self):
        with pytest.raises(UsageError) as refused:
            CheckPlan(window=8)
        assert str(refused.value).startswith("window= needs streaming=True: ")
        spelled = refused.value.spelled(lambda name, valued: name.upper())
        assert spelled.startswith("WINDOW needs STREAMING: ")
