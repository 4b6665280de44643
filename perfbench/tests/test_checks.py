"""Each correctness check passes on a right answer and fails on a
planted wrong one."""

import random

import pytest

import checks
from spans import Recorder, adopt, breakdown


def test_table1_counts_match_the_paper():
    assert checks.table1_errors(dict(checks.PAPER_TABLE1)) == []


def test_wrong_table1_count_is_caught():
    counts = dict(checks.PAPER_TABLE1)
    counts["Q5", 4] += 1
    errors = checks.table1_errors(counts)
    assert len(errors) == 1 and "Q5 with 4 FK(s)" in errors[0]


def test_missing_table1_row_is_caught():
    counts = dict(checks.PAPER_TABLE1)
    del counts["Q1", 0]
    assert len(checks.table1_errors(counts)) == 1


@pytest.fixture(scope="module")
def university():
    from repro.datasets import university_sample_database, university_schema

    schema = university_schema()
    return schema, university_sample_database(schema)


def test_sample_instance_loads(university):
    _, sample = university
    assert checks.fk_load_errors(sample, "sample") == []


def test_dangling_foreign_key_is_caught(university):
    _, sample = university
    db = sample.copy()
    # teaches(id, course_id, sec_id, semester, year): no instructor 'nobody'.
    row = list(db.relation("teaches").rows[0])
    row[0] = "nobody"
    db.insert("teaches", tuple(row))
    errors = checks.fk_load_errors(db, "planted")
    assert len(errors) == 1 and "FOREIGN KEY" in errors[0]


def test_duplicate_primary_key_is_caught(university):
    _, sample = university
    db = sample.copy()
    db.insert("department", db.relation("department").rows[0])
    assert len(checks.fk_load_errors(db, "planted")) == 1


@pytest.fixture(scope="module")
def q2_kill_check():
    from repro.core.generator import XDataGenerator
    from repro.datasets import (
        UNIVERSITY_QUERIES,
        schema_with_fks,
        university_sample_database,
    )
    from repro.mutation.space import enumerate_mutants
    from repro.testing.killcheck import evaluate_suite

    schema = schema_with_fks([])
    suite = XDataGenerator(schema).generate(UNIVERSITY_QUERIES["Q2"]["sql"])
    space = enumerate_mutants(suite.analyzed, include_full_outer=True)
    databases = suite.databases + [university_sample_database(schema)]
    return space, databases, evaluate_suite(space, databases)


def _all_pairs(report):
    return [(m, d) for m in range(report.total)
            for d in range(report.dataset_count)]


def test_engine_verdicts_agree_with_sqlite(q2_kill_check):
    space, databases, report = q2_kill_check
    assert checks.verdict_errors(
        space, databases, report, _all_pairs(report), "Q2"
    ) == []


@pytest.mark.parametrize("killed", [True, False])
def test_flipped_kill_verdict_is_caught(q2_kill_check, killed):
    space, databases, report = q2_kill_check
    pairs = checks.sample_pairs(report, random.Random(7), per_kind=1)
    m, d = pairs[0] if killed else pairs[1]
    outcome = report.outcomes[m]
    saved = list(outcome.killed_by)
    if killed:
        outcome.killed_by.remove(d)
    else:
        outcome.killed_by.append(d)
    try:
        errors = checks.verdict_errors(space, databases, report, [(m, d)], "Q2")
    finally:
        outcome.killed_by[:] = saved
    assert len(errors) == 1 and f"killed={not killed}" in errors[0]


def test_sample_pairs_cover_both_verdicts(q2_kill_check):
    _, _, report = q2_kill_check
    pairs = checks.sample_pairs(report, random.Random(1))
    verdicts = [d in report.outcomes[m].killed_by for m, d in pairs]
    assert verdicts == [True, True, False, False]


def test_identical_hit_bodies_pass():
    responses = [("fp", "miss", b'{"a": 1}'), ("fp", "hit", b'{"a": 1}')]
    assert checks.hit_body_errors(responses) == []


def test_hit_body_differing_by_one_byte_is_caught():
    responses = [("fp", "miss", b'{"a": 1}'), ("fp", "hit", b'{"a": 2}')]
    assert len(checks.hit_body_errors(responses)) == 1


def test_metrics_counters_must_match_the_client():
    text = (
        "# TYPE xdata_service_cache_hits_total counter\n"
        "xdata_service_cache_hits_total 234\n"
        "xdata_service_cache_misses_total 66\n"
    )
    assert checks.counter_errors(text, 234, 66) == []
    assert len(checks.counter_errors(text, 233, 67)) == 2


def test_self_times_and_remainder_add_up_to_wall():
    recorder = Recorder()
    with recorder.span("request"):
        pass
    server = [
        {"name": "generate", "start": recorder.spans[0]["start"],
         "end": recorder.spans[0]["start"], "parent": None, "attrs": {}},
    ]
    spans = adopt(recorder.spans, server)
    assert spans[1]["parent"] == 0
    wall = (spans[0]["end"] - spans[0]["start"]) + 0.5
    out = breakdown(spans, wall)
    layers = sum(v for k, v in out.items() if k.endswith(".self_s"))
    assert layers + out["trace.unattributed_s"] == pytest.approx(wall)


def test_request_latency_is_its_median_over_rounds():
    from run import percentile, request_latencies

    rounds = [
        {"latencies_ms": [10.0, None, 30.0]},
        {"latencies_ms": [50.0, None, 31.0]},
        {"latencies_ms": [12.0, None, 29.0]},
    ]
    latencies = request_latencies(rounds)
    assert latencies[0] == 12.0 and latencies[2] == 30.0
    assert latencies[1] == float("inf")  # a failed request misses any limit
    assert percentile(latencies, 0.5) == 30.0
    assert percentile(latencies, 0.95) == float("inf")
