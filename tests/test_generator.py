"""XDataGenerator (Algorithm 1) behaviour tests."""

import pytest

from repro.core import GenConfig, XDataGenerator
from repro.datasets import schema_with_fks, university_sample_database
from repro.engine.executor import execute_query
from repro.engine.integrity import find_violations
from repro.sql.parser import parse_query

Q2 = (
    "SELECT * FROM instructor i, teaches t, course c "
    "WHERE i.id = t.id AND t.course_id = c.course_id"
)


class TestOriginalDataset:
    def test_original_query_nonempty(self, uni_schema_nofk):
        suite = XDataGenerator(uni_schema_nofk).generate(Q2)
        original = [d for d in suite.datasets if d.group == "original"]
        assert len(original) == 1
        result = execute_query(parse_query(Q2), original[0].db)
        assert len(result) >= 1

    def test_original_with_selection(self, uni_schema_nofk):
        sql = "SELECT * FROM instructor i WHERE i.salary > 90000"
        suite = XDataGenerator(uni_schema_nofk).generate(sql)
        original = suite.datasets[0]
        result = execute_query(parse_query(sql), original.db)
        assert len(result) >= 1


class TestDatasetLegality:
    @pytest.mark.parametrize(
        "fks", [[], ["teaches.id"], ["teaches.id", "teaches.course_id"]]
    )
    def test_every_dataset_is_legal(self, fks):
        schema = schema_with_fks(fks)
        suite = XDataGenerator(schema).generate(Q2)
        for dataset in suite.datasets:
            assert find_violations(dataset.db) == []

    def test_out_of_query_fk_closed(self):
        """instructor.dept_name FK pulls a department row in (Sec V-B)."""
        schema = schema_with_fks(["instructor.dept_name"])
        sql = "SELECT * FROM instructor i WHERE i.salary > 0"
        suite = XDataGenerator(schema).generate(sql)
        for dataset in suite.datasets:
            assert find_violations(dataset.db) == []
            if len(dataset.db.relation("instructor")):
                assert len(dataset.db.relation("department")) >= 1

    def test_transitive_fk_closure(self):
        """teaches -> course -> department -> classroom chain closes."""
        schema = schema_with_fks(
            ["teaches.course_id", "course.dept_name", "department.building"]
        )
        sql = "SELECT * FROM teaches t WHERE t.year > 2000"
        suite = XDataGenerator(schema).generate(sql)
        for dataset in suite.datasets:
            assert find_violations(dataset.db) == []
            if len(dataset.db.relation("teaches")):
                assert len(dataset.db.relation("classroom")) >= 1


class TestCounts:
    def test_table1_dataset_counts(self):
        """The '#Datasets Generated' column of Table I, all rows."""
        from repro.datasets import UNIVERSITY_QUERIES

        expected = {
            ("Q1", 0): 2, ("Q1", 1): 1,
            ("Q2", 0): 4, ("Q2", 1): 3, ("Q2", 2): 2,
            ("Q3", 0): 6, ("Q3", 1): 5, ("Q3", 4): 3,
            ("Q4", 0): 7, ("Q4", 4): 4,
            ("Q5", 0): 9, ("Q5", 4): 6,
            ("Q6", 0): 11, ("Q6", 6): 6,
        }
        for name in ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6"]:
            info = UNIVERSITY_QUERIES[name]
            for fks in info["fk_rows"]:
                schema = schema_with_fks(fks)
                suite = XDataGenerator(schema).generate(info["sql"])
                assert (
                    suite.non_original_count() == expected[(name, len(fks))]
                ), f"{name} with {len(fks)} FKs"

    def test_table2_dataset_counts(self):
        from repro.datasets import UNIVERSITY_QUERIES

        expected = {"Q7": 3, "Q8": 1, "Q9": 2, "Q10": 6, "Q11": 9}
        for name, count in expected.items():
            info = UNIVERSITY_QUERIES[name]
            schema = schema_with_fks(info["fk_rows"][0])
            suite = XDataGenerator(schema).generate(info["sql"])
            assert suite.non_original_count() == count, name


class TestSkips:
    def test_fk_makes_group_equivalent(self):
        schema = schema_with_fks(["teaches.id"])
        sql = "SELECT * FROM instructor i, teaches t WHERE i.id = t.id"
        suite = XDataGenerator(schema).generate(sql)
        assert any(
            s.reason == "structurally-equivalent" for s in suite.skipped
        )

    def test_self_join_nullification_skipped(self, uni_schema_nofk):
        """r1.a = r2.a over the same table: every tuple matches itself."""
        sql = (
            "SELECT * FROM course c1, course c2 "
            "WHERE c1.course_id = c2.course_id"
        )
        suite = XDataGenerator(uni_schema_nofk).generate(sql)
        assert suite.non_original_count() == 0
        assert len(suite.skipped) == 2

    def test_count_star_skipped(self, uni_schema_nofk):
        sql = "SELECT COUNT(*) FROM instructor"
        suite = XDataGenerator(uni_schema_nofk).generate(sql)
        assert any(s.group == "aggregate" for s in suite.skipped)


class TestConfig:
    def test_comparisons_can_be_disabled(self, uni_schema_nofk):
        sql = "SELECT * FROM instructor i WHERE i.salary > 100"
        config = GenConfig(include_comparisons=False)
        suite = XDataGenerator(uni_schema_nofk, config).generate(sql)
        assert suite.count("comparison") == 0

    def test_aggregates_can_be_disabled(self, uni_schema_nofk):
        sql = "SELECT SUM(i.salary) FROM instructor i"
        config = GenConfig(include_aggregates=False)
        suite = XDataGenerator(uni_schema_nofk, config).generate(sql)
        assert suite.count("aggregate") == 0

    def test_unfold_false_gives_same_datasets(self, uni_schema_nofk):
        fast = XDataGenerator(uni_schema_nofk).generate(Q2)
        slow = XDataGenerator(
            uni_schema_nofk, GenConfig(unfold=False)
        ).generate(Q2)
        assert fast.non_original_count() == slow.non_original_count()

    def test_accepts_parsed_query(self, uni_schema_nofk):
        suite = XDataGenerator(uni_schema_nofk).generate(parse_query(Q2))
        assert suite.datasets

    def test_suite_reporting_helpers(self, uni_schema_nofk):
        suite = XDataGenerator(uni_schema_nofk).generate(Q2)
        assert suite.count() == len(suite.datasets)
        assert suite.count("eqclass") == 4
        text = suite.pretty()
        assert "Test suite" in text


class TestInputDatabase:
    def test_domain_mode_uses_input_values(self, uni_schema_nofk):
        sample = university_sample_database(uni_schema_nofk)
        config = GenConfig(input_db=sample, input_mode="domain")
        suite = XDataGenerator(uni_schema_nofk, config).generate(Q2)
        instructor_ids = {
            row[0] for row in sample.relation("instructor").rows
        }
        for dataset in suite.datasets:
            if not dataset.used_input_db:
                continue
            for row in dataset.db.relation("instructor").rows:
                assert row[0] in instructor_ids

    def test_falls_back_without_input_db(self, uni_schema_nofk):
        """Aggregation needs 3 distinct-ish tuples; a 1-row input database
        cannot supply them, so the generator retries without it."""
        from repro.engine.database import Database

        tiny_input = Database(uni_schema_nofk)
        tiny_input.insert("instructor", (1, "Srinivasan", "CS", 1000))
        config = GenConfig(input_db=tiny_input, input_mode="tuples")
        sql = "SELECT i.dept_name, SUM(i.salary) FROM instructor i GROUP BY i.dept_name"
        suite = XDataGenerator(uni_schema_nofk, config).generate(sql)
        agg = [d for d in suite.datasets if d.group == "aggregate"]
        assert agg and not agg[0].used_input_db


class TestForeignKeyClosure:
    """Rows synthesised outside the query must not dangle into it."""

    @pytest.mark.parametrize("seed", [5, 10])
    def test_synthesised_rows_reference_in_query_keys(self, uni_schema, seed):
        # Both grammar queries join department but not instructor; the
        # closure synthesises instructor rows (for teaches/advisor) whose
        # default dept_name 'CS' is not among the query's departments.
        import random

        from repro.testing import sample_conformance_query

        sql = sample_conformance_query(random.Random(seed), uni_schema)
        suite = XDataGenerator(uni_schema).generate(sql)
        assert suite.datasets
        for dataset in suite.datasets:
            assert find_violations(dataset.db) == []
            departments = {
                row[0] for row in dataset.db.relation("department").rows
            }
            for row in dataset.db.relation("instructor").rows:
                assert row[2] is None or row[2] in departments
