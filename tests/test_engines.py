"""The pluggable parallelism-engine API: registry, engines, plumbing.

Covers the registry surface (register/available/make, unknown-name
errors), the vector-clock and DePa engines against the reference
relation semantics, checks that every registered engine must pass
(Figure 2 verdicts, stats, checker verdicts, the 36-program suite),
duck-typed
third-party engines flowing through the runtime and checkers, and the
derived surfaces (CLI choices, fuzz-oracle legs, per-engine metrics)
that must track the registry automatically.
"""

import argparse

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.checker import OptAtomicityChecker
from repro.dpst import ArrayDPST, NodeKind, ROOT_ID, relation
from repro.dpst.depa import DePaEngine
from repro.dpst.engines import (
    ParallelismEngine,
    UnknownEngineError,
    _ENGINE_FACTORIES,
    available_engines,
    engine_name_of,
    make_engine,
    register_engine,
)
from repro.dpst.stats import EngineStats
from repro.dpst.vclock import VectorClockEngine
from repro.errors import CheckerError, TraceError
from repro.runtime import TaskProgram
from repro.runtime.program import run_program
from repro.trace.generator import GeneratorConfig, TraceGenerator
from repro.trace.replay import _make_context

from tests.conftest import build_figure2


def tiny_program(ctx):
    def rmw(inner):
        value = inner.read("X")
        inner.write("X", value + 1)

    ctx.spawn(rmw)
    ctx.spawn(rmw)
    ctx.sync()


def diamond_tree():
    """step - (two parallel tasks) - step, under one finish."""
    tree = ArrayDPST()
    s0 = tree.add_node(ROOT_ID, NodeKind.STEP)
    finish = tree.add_node(ROOT_ID, NodeKind.FINISH)
    a1 = tree.add_node(finish, NodeKind.ASYNC)
    s1 = tree.add_node(a1, NodeKind.STEP)
    a2 = tree.add_node(finish, NodeKind.ASYNC)
    s2 = tree.add_node(a2, NodeKind.STEP)
    s3 = tree.add_node(ROOT_ID, NodeKind.STEP)
    return tree, (s0, s1, s2, s3)


class TestRegistry:
    def test_builtins_registered(self):
        assert set(available_engines()) >= {"lca", "vc", "depa"}

    def test_available_engines_sorted(self):
        names = available_engines()
        assert list(names) == sorted(names)

    def test_make_engine_builds_each_builtin(self):
        tree, _ = diamond_tree()
        for name in available_engines():
            engine = make_engine(name, tree)
            assert engine.tree is tree
            assert engine_name_of(engine) == name
            assert isinstance(engine.stats, EngineStats)

    def test_make_engine_forwards_cache_flag(self):
        tree, _ = diamond_tree()
        assert make_engine("lca", tree, cache=False).cache_enabled is False
        assert make_engine("depa", tree, cache=True).cache_enabled is True

    def test_unknown_engine_error_type_and_message(self):
        tree, _ = diamond_tree()
        with pytest.raises(UnknownEngineError) as exc:
            make_engine("psychic", tree)
        message = str(exc.value)
        assert "psychic" in message
        for name in available_engines():
            assert name in message
        # Every historical except clause must keep catching it.
        assert isinstance(exc.value, CheckerError)
        assert isinstance(exc.value, TraceError)
        assert isinstance(exc.value, ValueError)

    def test_register_engine_rejects_bad_names(self):
        with pytest.raises(ValueError):
            register_engine("", lambda tree, cache=True: None)

    def test_register_and_unregister_custom_engine(self):
        register_engine("reltest", lambda tree, cache=True: RelationEngine(tree, cache))
        try:
            assert "reltest" in available_engines()
            tree, _ = diamond_tree()
            assert isinstance(make_engine("reltest", tree), RelationEngine)
        finally:
            _ENGINE_FACTORIES.pop("reltest", None)


class RelationEngine:
    """A minimal duck-typed engine: defers every query to the relation."""

    engine_name = "reltest"

    def __init__(self, tree, cache=True):
        self.tree = tree
        self.cache_enabled = cache
        self.stats = EngineStats()

    def parallel(self, a, b):
        self.stats.queries += 1
        return relation.parallel(self.tree, a, b)

    def series(self, a, b):
        return a != b and not self.parallel(a, b)

    def precedes(self, a, b):
        return relation.precedes(self.tree, a, b)

    def reset_stats(self):
        self.stats = EngineStats()


class TestNewEngines:
    @pytest.mark.parametrize("engine_cls", [VectorClockEngine, DePaEngine])
    def test_diamond_verdicts(self, engine_cls):
        tree, (s0, s1, s2, s3) = diamond_tree()
        engine = engine_cls(tree)
        assert engine.parallel(s1, s2)
        assert engine.precedes(s0, s1)
        assert engine.precedes(s1, s3)  # the finish joins before s3
        assert engine.series(s0, s3)
        assert not engine.parallel(s1, s1)

    @pytest.mark.parametrize("engine_cls", [VectorClockEngine, DePaEngine])
    @pytest.mark.parametrize("cache", [True, False])
    def test_matches_relation_on_nested_tree(self, engine_cls, cache):
        tree = ArrayDPST()
        scope = ROOT_ID
        for _ in range(4):
            finish = tree.add_node(scope, NodeKind.FINISH)
            for _ in range(3):
                async_node = tree.add_node(finish, NodeKind.ASYNC)
                tree.add_node(async_node, NodeKind.STEP)
            tree.add_node(scope, NodeKind.STEP)
            scope = finish
        engine = engine_cls(tree, cache=cache)
        for a in tree.nodes():
            for b in tree.nodes():
                assert engine.parallel(a, b) == relation.parallel(tree, a, b), (a, b)
                assert engine.precedes(a, b) == relation.precedes(tree, a, b), (a, b)

    def test_depa_width_growth_mid_query(self):
        """Materializing b's label may regrade the codes; the already
        fetched code of *a* must not leak through in the old grading."""
        tree = ArrayDPST()
        finish = tree.add_node(ROOT_ID, NodeKind.FINISH)
        steps = []
        for _ in range(5):  # ranks up to 4: overflows the 2-bit grading
            async_node = tree.add_node(finish, NodeKind.ASYNC)
            steps.append(tree.add_node(async_node, NodeKind.STEP))
        engine = DePaEngine(tree)
        # First query pairs a low-rank node (labelled at the minimum
        # width) with a high-rank one (which forces the growth).
        assert engine.parallel(steps[0], steps[4])
        for a in steps:
            for b in steps:
                assert engine.parallel(a, b) == (a != b), (a, b)

    def test_depa_cached_queries_cost_no_hops(self):
        tree, (s0, s1, s2, s3) = diamond_tree()
        engine = DePaEngine(tree, cache=False)
        engine.parallel(s1, s2)
        labelled = engine.stats.hops
        assert labelled > 0
        engine.parallel(s2, s1)
        engine.parallel(s1, s2)
        assert engine.stats.hops == labelled  # O(1): no new label walks

    def test_vc_reset_stats_keeps_clocks(self):
        tree, (s0, s1, s2, s3) = diamond_tree()
        engine = VectorClockEngine(tree)
        assert engine.parallel(s1, s2)
        engine.reset_stats()
        assert engine.stats.queries == 0
        assert engine.parallel(s1, s2)
        assert engine.stats.queries == 1


class TestEveryEngine:
    """Engine-generic checks, run for every registered engine."""

    @pytest.mark.parametrize("name", available_engines())
    def test_figure2_verdicts(self, name):
        tree = ArrayDPST()
        s11, f12, a2, s2, s12, a3, s3 = build_figure2(tree)
        engine = make_engine(name, tree)
        assert engine.parallel(s2, s12)
        assert engine.parallel(s2, s3)
        assert not engine.parallel(s11, s2)
        assert not engine.parallel(s12, s3)

    @pytest.mark.parametrize("name", available_engines())
    def test_figure2_precedes(self, name):
        tree = ArrayDPST()
        s11, f12, a2, s2, s12, a3, s3 = build_figure2(tree)
        engine = make_engine(name, tree)
        assert engine.precedes(s11, s2)
        assert engine.precedes(s12, s3)
        assert not engine.precedes(s3, s12)
        assert not engine.precedes(s2, s3)  # parallel, not ordered

    @pytest.mark.parametrize("name", available_engines())
    def test_stats_count_queries_and_unique_pairs(self, name):
        tree = ArrayDPST()
        s11, f12, a2, s2, s12, a3, s3 = build_figure2(tree)
        engine = make_engine(name, tree)
        engine.parallel(s2, s3)
        engine.parallel(s2, s3)
        assert engine.stats.queries == 2
        assert engine.stats.unique == 1
        engine.reset_stats()
        assert engine.stats.queries == 0

    @pytest.mark.parametrize(
        "name", [name for name in available_engines() if name != "lca"]
    )
    @given(seed=st.integers(min_value=0, max_value=3_000))
    @settings(
        max_examples=15, deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow, HealthCheck.function_scoped_fixture
        ],
    )
    def test_checker_verdicts_match_lca_on_generated_programs(self, name, seed):
        generator = TraceGenerator(
            GeneratorConfig(tasks=4, accesses_per_task=3, locations=2, locks=1)
        )
        program = generator.generate_program(seed=seed)
        with_lca = OptAtomicityChecker(mode="thorough")
        run_program(program, observers=[with_lca], parallel_engine="lca")
        with_other = OptAtomicityChecker(mode="thorough")
        run_program(program, observers=[with_other], parallel_engine=name)
        assert set(with_lca.report.locations()) == set(
            with_other.report.locations()
        )

    @pytest.mark.parametrize(
        "name", [name for name in available_engines() if name != "lca"]
    )
    def test_suite_passes(self, name):
        from repro.suite import all_cases

        for case in all_cases():
            checker = OptAtomicityChecker()
            result = run_program(
                case.build(), observers=[checker], parallel_engine=name
            )
            assert set(result.report().locations()) == set(case.expected), (
                case.name
            )


class TestRuntimePlumbing:
    @pytest.mark.parametrize("name", ["vc", "depa"])
    def test_run_program_accepts_new_engines(self, name):
        checker = OptAtomicityChecker(mode="thorough")
        result = run_program(
            tiny_program, observers=[checker], parallel_engine=name
        )
        assert result.report().locations() == ["X"]
        assert engine_name_of(result.engine) == name

    @pytest.mark.parametrize(
        "name", [name for name in available_engines() if name != "lca"]
    )
    def test_selected_engine_answers_checker_queries(self, name):
        def rmw(ctx):
            value = ctx.read("X")
            ctx.write("X", value + 1)

        def main(ctx):
            ctx.spawn(rmw)
            ctx.spawn(rmw)
            ctx.sync()

        result = run_program(
            TaskProgram(main),
            observers=[OptAtomicityChecker()],
            parallel_engine=name,
        )
        assert set(result.report().locations()) == {"X"}
        assert engine_name_of(result.engine) == name
        assert result.engine.stats.queries > 0

    def test_run_program_rejects_retired_labels_engine(self):
        def main(ctx):
            ctx.read("X")

        with pytest.raises(ValueError) as exc:
            run_program(
                TaskProgram(main),
                observers=[OptAtomicityChecker()],
                parallel_engine="labels",
            )
        assert isinstance(exc.value, UnknownEngineError)
        for name in available_engines():
            assert name in str(exc.value)

    def test_run_program_unknown_engine(self):
        with pytest.raises(UnknownEngineError):
            run_program(
                tiny_program,
                observers=[OptAtomicityChecker()],
                parallel_engine="voodoo",
            )

    def test_checker_accepts_duck_typed_engine(self):
        register_engine("reltest", lambda tree, cache=True: RelationEngine(tree, cache))
        try:
            checker = OptAtomicityChecker(mode="thorough")
            result = run_program(
                tiny_program, observers=[checker], parallel_engine="reltest"
            )
            assert result.report().locations() == ["X"]
            assert result.engine.stats.queries > 0
        finally:
            _ENGINE_FACTORIES.pop("reltest", None)

    def test_checker_rejects_missing_engine(self):
        context = _make_context(None, None)
        with pytest.raises(CheckerError, match="parallelism engine"):
            OptAtomicityChecker().on_run_begin(context)


class TestDerivedSurfaces:
    def test_cli_choices_track_registry(self):
        from repro.cli import build_parser

        parser = build_parser()
        subparsers = next(
            action
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        for command in ("check", "check-trace", "suite", "fuzz"):
            sub = subparsers.choices[command]
            action = next(
                a for a in sub._actions if "--engine" in a.option_strings
            )
            assert tuple(action.choices) == available_engines(), command

    def test_exact_legs_derived_from_registry(self):
        from repro.fuzz.oracle import exact_legs

        legs = exact_legs()
        assert "lca-engine" not in legs  # the reference itself
        for name in available_engines():
            if name != "lca":
                assert f"{name}-engine" in legs
        assert "vc-engine" not in exact_legs(reference="vc")
        assert "lca-engine" in exact_legs(reference="vc")

    def test_per_engine_metric_names_registered(self):
        from repro.obs import METRIC_NAMES

        for name in available_engines():
            for suffix in ("queries", "unique", "hops"):
                assert f"engine.{name}.{suffix}" in METRIC_NAMES

    def test_stats_labelled_by_engine_name(self):
        stats = EngineStats()
        stats.queries = 5
        metrics = stats.as_metrics("depa")
        assert metrics["engine.depa.queries"] == 5
        assert metrics["engine.queries"] == 5
        assert "engine.depa.queries" not in stats.as_metrics()

    def test_flush_engine_stats_emits_per_engine_counters(self):
        from repro.obs import MetricsRecorder, flush_engine_stats

        tree, (s0, s1, s2, s3) = diamond_tree()
        engine = make_engine("vc", tree)
        engine.parallel(s1, s2)
        recorder = MetricsRecorder()
        flush_engine_stats(recorder, engine)
        counters = recorder.snapshot().counters
        assert counters["engine.vc.queries"] == 1
        assert counters["engine.queries"] == 1
