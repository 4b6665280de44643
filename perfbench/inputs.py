"""Workload inputs, made from the ``--seed`` argument.

* ``table12``: the paper's 12 Table I/II queries at each of their
  foreign-key variants (20 requests), in the paper's order.  The set is
  the paper's; the seed draws only the kill verdicts that are re-checked
  on SQLite.  (A seeded order moved peak memory by 7% between seeds,
  from allocator fragmentation alone.)
* ``conformance``: conformance-grammar queries 0-199; the seed fixes the
  request order.  The query set itself does not move with the seed, so
  the two queries that fail today (grammar seeds 5 and 10) fail in every
  run and the failed share stays fixed.
* ``grading``: 300 ``mode=evaluate`` submissions.  40 per assignment for
  six assignments, each spelled with its own case and whitespace noise,
  plus 60 fresh queries (conformance-grammar seeds 1000-1059, each
  submitted once).  The seed fixes the spellings and the stream order.
"""

from __future__ import annotations

import random
import re

CONFORMANCE_SEEDS = range(200)
ASSIGNMENTS = ("Q1", "Q7", "Q8", "Q9", "Q10", "Q11")
SUBMISSIONS_PER_ASSIGNMENT = 40
FRESH_SEEDS = range(1000, 1060)


def table12_requests() -> list[tuple[str, tuple[str, ...]]]:
    """(query name, foreign-key variant) per request."""
    from repro.datasets import UNIVERSITY_QUERIES

    return [
        (name, tuple(fk_rows))
        for name, info in UNIVERSITY_QUERIES.items()
        for fk_rows in info["fk_rows"]
    ]


def conformance_requests(seed: int) -> list[int]:
    """Conformance-grammar seeds, in seeded order."""
    seeds = list(CONFORMANCE_SEEDS)
    random.Random(seed).shuffle(seeds)
    return seeds


def respell(sql: str, rng: random.Random) -> str:
    """One student's spelling of ``sql``: keyword/identifier case and
    whitespace noise outside string literals."""
    segments = sql.split("'")
    for index in range(0, len(segments), 2):
        words = re.split(r"(\s+)", segments[index])
        out = []
        for word in words:
            if word.isspace():
                out.append(" " * rng.randint(1, 3) if rng.random() < 0.4 else word)
            elif word and rng.random() < 0.5:
                out.append(word.upper() if rng.random() < 0.5 else word.lower())
            else:
                out.append(word)
        segments[index] = "".join(out)
    return "'".join(segments)


def grading_stream(seed: int, schema) -> list[tuple[str, str]]:
    """(label, sql) per submission, in seeded order."""
    from repro.datasets import UNIVERSITY_QUERIES
    from repro.testing.conformance import sample_conformance_query

    rng = random.Random(seed)
    stream = [
        (name, respell(UNIVERSITY_QUERIES[name]["sql"], rng))
        for name in ASSIGNMENTS
        for _ in range(SUBMISSIONS_PER_ASSIGNMENT)
    ]
    for fresh in FRESH_SEEDS:
        sql = sample_conformance_query(random.Random(fresh), schema)
        stream.append((f"fresh-{fresh}", respell(sql, rng)))
    rng.shuffle(stream)
    return stream
