"""Surface lock for the public API (DESIGN.md §5e).

``repro`` and ``repro.api`` are the documented entry points; these tests
pin their exact export lists so a refactor cannot silently add, drop or
rename a public name.  They also pin the deprecation contract: the old
config keyword spellings (``SearchConfig(deadline_s=...)``,
``GenConfig(pool_timeout_s=...)``) keep working but warn, and the
``Budgets`` overlay is the one blessed way to set every deadline at
once.
"""

from __future__ import annotations

import dataclasses
import pickle
import warnings

import pytest

import repro
from repro import api
from repro.core.generator import Budgets, GenConfig
from repro.solver.search import SearchConfig

EXPECTED_ALL = sorted(
    [
        # facade
        "api",
        "generate",
        "generate_workload",
        "evaluate",
        "fingerprint",
        "Run",
        "Evaluation",
        "EvalOptions",
        "Session",
        "Budgets",
        "SuiteHealth",
        # pipeline building blocks
        "XDataGenerator",
        "GenConfig",
        "TestSuite",
        "GeneratedDataset",
        "AnalyzedQuery",
        "analyze_query",
        "parse_query",
        "to_sql",
        "parse_ddl",
        "Schema",
        "Table",
        "Column",
        "ForeignKey",
        "SqlType",
        "Database",
        "execute_query",
        "execute_plan",
        "enumerate_mutants",
        "MutationSpace",
        "Mutant",
        "evaluate_suite",
        "classify_survivors",
        "random_database",
        "format_kill_report",
        "format_suite",
        "format_trace",
        "ShortPaperGenerator",
        "XDataError",
        "minimize_suite",
        "check_assumptions",
        "decorrelate",
        "to_insert_script",
        "to_csv_map",
        "from_csv_map",
        "__version__",
    ]
)

DDL = "CREATE TABLE t (id INT PRIMARY KEY, v INT);"
SQL = "SELECT v FROM t WHERE v > 5"


class TestSurfaceLock:
    def test_repro_all_is_exact(self):
        assert sorted(repro.__all__) == EXPECTED_ALL

    def test_repro_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_api_all_is_exact(self):
        assert sorted(api.__all__) == sorted(
            [
                "Run",
                "Evaluation",
                "EvalOptions",
                "Session",
                "generate",
                "generate_workload",
                "evaluate",
                "fingerprint",
                "GenConfig",
                "SearchConfig",
                "Budgets",
            ]
        )

    def test_facade_names_are_the_api_objects(self):
        assert repro.generate is api.generate
        assert repro.evaluate is api.evaluate
        assert repro.generate_workload is api.generate_workload
        assert repro.Run is api.Run
        assert repro.Session is api.Session
        assert repro.EvalOptions is api.EvalOptions
        assert repro.fingerprint is api.fingerprint


class TestFacade:
    def test_generate_accepts_ddl_text(self):
        run = repro.generate(DDL, SQL)
        assert run.ok
        assert len(run.datasets) == 4
        assert run.datasets is run.suite.datasets
        assert run.trace is None and run.metrics is None

    def test_generate_accepts_parsed_schema(self):
        schema = repro.parse_ddl(DDL)
        run = repro.generate(schema, SQL)
        assert run.health.completed == 4

    def test_run_exposes_observability(self):
        run = repro.generate(
            DDL, SQL, config=GenConfig(trace=True, metrics=True)
        )
        assert run.trace and run.trace[0]["name"] == "generate"
        assert "generate [ok]" in run.trace_text()
        assert run.metrics["counters"]["xdata_specs_completed_total"] == 4
        assert "xdata_specs_completed_total 4" in run.metrics_text()
        assert "health: completed=4" in run.summary()

    def test_evaluate_scores_the_suite(self):
        scored = repro.evaluate(DDL, SQL)
        assert scored.total == len(scored.space.mutants) > 0
        assert scored.killed == scored.total
        assert scored.survivors == []
        assert scored.run.ok

    def test_generate_workload_accepts_ddl_text(self):
        workload = repro.generate_workload(DDL, {"q": SQL})
        assert len(workload.entries) == 1
        assert not workload.entries[0].failed
        assert workload.datasets


class TestDeprecatedAliases:
    def test_search_config_deadline_kwarg_warns_and_applies(self):
        with pytest.warns(DeprecationWarning, match="solve_deadline_s"):
            config = SearchConfig(deadline_s=1.5)
        assert config.solve_deadline_s == 1.5

    def test_search_config_deadline_read_warns(self):
        config = SearchConfig(solve_deadline_s=2.0)
        with pytest.warns(DeprecationWarning, match="solve_deadline_s"):
            assert config.deadline_s == 2.0

    def test_gen_config_pool_timeout_kwarg_warns_and_applies(self):
        with pytest.warns(DeprecationWarning, match="pool_deadline_s"):
            config = GenConfig(pool_timeout_s=30.0)
        assert config.pool_deadline_s == 30.0

    def test_gen_config_pool_timeout_read_warns(self):
        config = GenConfig(pool_deadline_s=45.0)
        with pytest.warns(DeprecationWarning, match="pool_deadline_s"):
            assert config.pool_timeout_s == 45.0

    def test_new_spellings_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            SearchConfig(solve_deadline_s=1.0)
            GenConfig(pool_deadline_s=10.0)

    def test_replace_new_value_wins_over_alias_roundtrip(self):
        # replace() reads the alias property and re-passes the old
        # value; it must not clobber the new-name value in `changes`.
        with pytest.warns(DeprecationWarning):
            base = SearchConfig(deadline_s=1.5)
            clone = dataclasses.replace(base, solve_deadline_s=3.0)
        assert clone.solve_deadline_s == 3.0
        with pytest.warns(DeprecationWarning):
            gen_base = GenConfig(pool_timeout_s=30.0)
            gen_clone = dataclasses.replace(gen_base, pool_deadline_s=60.0)
        assert gen_clone.pool_deadline_s == 60.0

    def test_internal_copies_do_not_read_aliases(self):
        from repro.solver.search import replace_config

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            clone = replace_config(
                GenConfig(pool_deadline_s=5.0, delta_solve=False), workers=1
            )
            search = replace_config(
                SearchConfig(solve_deadline_s=2.0), node_limit=10
            )
        assert clone.pool_deadline_s == 5.0 and clone.workers == 1
        assert clone.solver.delta_solve is False
        assert search.solve_deadline_s == 2.0 and search.node_limit == 10

    def test_configs_survive_replace_and_pickle(self):
        config = GenConfig(pool_deadline_s=9.0, spec_deadline_s=3.0)
        clone = dataclasses.replace(config, retries=2)
        assert clone.pool_deadline_s == 9.0 and clone.retries == 2
        assert pickle.loads(pickle.dumps(clone)).pool_deadline_s == 9.0
        search = SearchConfig(solve_deadline_s=4.0)
        assert dataclasses.replace(search).solve_deadline_s == 4.0
        assert pickle.loads(pickle.dumps(search)).solve_deadline_s == 4.0


class TestEvalOptions:
    """The EvalOptions bundle and the legacy-keyword deprecation shim."""

    def test_evaluate_accepts_options_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scored = repro.evaluate(
                DDL, SQL, options=repro.EvalOptions(include_full_outer=True)
            )
        assert scored.total > 0

    @pytest.mark.parametrize(
        "keyword, value",
        [
            ("include_full_outer", True),
            ("backend", "sqlite"),
            ("cross_check", True),
            ("kill_config", None),
        ],
    )
    def test_legacy_keywords_warn_and_apply(self, keyword, value):
        with pytest.warns(DeprecationWarning, match="EvalOptions"):
            scored = repro.evaluate(DDL, SQL, **{keyword: value})
        assert scored.killed == scored.total

    def test_legacy_keyword_result_matches_options_result(self):
        with pytest.warns(DeprecationWarning):
            legacy = repro.evaluate(DDL, SQL, include_full_outer=True)
        modern = repro.evaluate(
            DDL, SQL, options=repro.EvalOptions(include_full_outer=True)
        )
        assert legacy.total == modern.total
        assert legacy.killed == modern.killed

    def test_mixing_options_and_legacy_is_an_error(self):
        with pytest.raises(TypeError, match="not both"):
            repro.evaluate(
                DDL, SQL, options=repro.EvalOptions(), cross_check=True
            )

    def test_unknown_keyword_is_an_error(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            repro.evaluate(DDL, SQL, not_a_switch=1)

    def test_options_are_frozen_and_hashable(self):
        options = repro.EvalOptions(cross_check=True)
        with pytest.raises(dataclasses.FrozenInstanceError):
            options.cross_check = False
        assert hash(options) == hash(repro.EvalOptions(cross_check=True))


class TestSession:
    def test_session_memoizes_equivalent_spellings(self):
        with repro.Session(DDL) as session:
            first = session.generate(SQL)
            again = session.generate("select  V from T where v>5")
            assert first is again
            assert session.cached_runs == 1

    def test_session_distinguishes_different_queries(self):
        with repro.Session(DDL) as session:
            session.generate(SQL)
            session.generate("SELECT v FROM t WHERE v > 6")
            assert session.cached_runs == 2

    def test_session_evaluate_memoizes_and_scores(self):
        session = repro.Session(DDL)
        scored = session.evaluate(SQL)
        assert scored.killed == scored.total > 0
        assert session.evaluate("SELECT v FROM t WHERE v > 5") is scored
        per_call = session.evaluate(
            SQL, options=repro.EvalOptions(include_full_outer=True)
        )
        assert per_call is not scored

    def test_session_fingerprint_matches_module_fingerprint(self):
        session = repro.Session(DDL)
        assert session.fingerprint(SQL) == repro.fingerprint(DDL, SQL)

    def test_close_clears_the_memo(self):
        session = repro.Session(DDL)
        session.generate(SQL)
        session.close()
        assert session.cached_runs == 0


class TestFingerprint:
    def test_equivalent_spellings_collide(self):
        assert repro.fingerprint(DDL, SQL) == repro.fingerprint(
            DDL, "select  v from T\nwhere V > 5"
        )

    def test_different_semantics_do_not_collide(self):
        assert repro.fingerprint(DDL, SQL) != repro.fingerprint(
            DDL, "SELECT v FROM t WHERE v > 6"
        )

    def test_config_affects_fingerprint_but_observability_does_not(self):
        base = repro.fingerprint(DDL, SQL)
        assert base == repro.fingerprint(
            DDL, SQL, GenConfig(trace=True, metrics=True, workers=4)
        )
        assert base != repro.fingerprint(DDL, SQL, GenConfig(unfold=False))


class TestBudgets:
    def test_overlay_applies_every_deadline(self):
        budgets = Budgets(
            solve_deadline_s=1.0,
            spec_deadline_s=2.0,
            suite_deadline_s=3.0,
            pool_deadline_s=4.0,
        )
        config = GenConfig(budgets=budgets)
        assert config.solver.solve_deadline_s == 1.0
        assert config.spec_deadline_s == 2.0
        assert config.suite_deadline_s == 3.0
        assert config.pool_deadline_s == 4.0

    def test_partial_overlay_keeps_other_fields(self):
        config = GenConfig(spec_deadline_s=7.0, budgets=Budgets(pool_deadline_s=5.0))
        assert config.spec_deadline_s == 7.0
        assert config.pool_deadline_s == 5.0

    def test_replace_is_idempotent(self):
        config = GenConfig(budgets=Budgets(spec_deadline_s=2.0))
        clone = dataclasses.replace(config, retries=3)
        assert clone.spec_deadline_s == 2.0
