"""Survey-at-scale: in-memory vs file store, single vs sharded ingest.

Section 6 aggregates 102M parsed records -- far beyond what an
in-memory entry list can hold.  This bench measures the survey layer's
two scaling levers on the same job stream:

- placement: ``SqliteStore()`` (an in-memory ``":memory:"`` database)
  vs ``SqliteStore(path)`` (the durable file replica), both with
  batched transactional ingest, with the Section 6 tables asserted
  bit-identical;
- ingest fan-out: inline single-process vs ``sharded_ingest`` across
  4 worker processes, rows asserted identical;
- capacity: the sqlite replica ingests 10x the memory arm's record
  count while the coordinator's resident set stays flat (streaming
  cursors and SQL aggregates, no materialized entry lists).

Scale with ``REPRO_BENCH_SURVEY_RECORDS`` (default 1500) and the usual
``REPRO_BENCH_TRAIN``.  Set ``REPRO_BENCH_SURVEY_SCALE`` to a path to
archive the timings as JSON (the ``BENCH_survey_scale.json`` CI
artifact).
"""

import json
import os
import time

import pytest
from conftest import emit

from repro.datagen import CorpusGenerator
from repro.datagen.corpus import CorpusConfig
from repro.survey.analysis import (
    creation_histogram,
    top_registrant_countries,
    top_registrars,
)
from repro.survey.ingest import IngestJob, sharded_ingest
from repro.survey.store import SqliteStore

N_RECORDS = int(os.environ.get("REPRO_BENCH_SURVEY_RECORDS", 1500))
SCALE_FACTOR = 10

#: wall-clock and throughput results, keyed by arm, for the artifact.
_RESULTS: dict[str, dict] = {}


def _rss_mb() -> float:
    """Current resident set in MiB, from /proc/self/status."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


@pytest.fixture(scope="module")
def survey_jobs(trained_parser):
    gen = CorpusGenerator(CorpusConfig(seed=77))
    return [
        IngestJob(domain=registration.domain,
                  text=gen.render(registration).text)
        for registration in gen.registrations(N_RECORDS)
    ]


def _tables(db):
    return (
        [(r.key, r.count, r.share) for r in top_registrars(db)],
        [(r.key, r.count, r.share) for r in top_registrant_countries(db)],
        creation_histogram(db),
    )


def _timed_ingest(jobs, parser, *, store=None, shards=1):
    # Drop the memoized line encoders so every arm pays the same cold
    # cache -- otherwise whichever arm runs second wins by cache hits
    # (forked shard workers inherit main's warmth, so this resets them
    # too).
    parser._bulk_encoders = None
    start = time.perf_counter()
    db = sharded_ingest(jobs, parser, store=store, shards=shards)
    return db, time.perf_counter() - start


def test_memory_vs_sqlite_backends(tmp_path_factory, trained_parser,
                                   survey_jobs):
    """Same jobs into an in-memory store and a file replica: identical
    tables, both timed."""
    tmp = tmp_path_factory.mktemp("survey-scale")
    mem_db, mem_s = _timed_ingest(
        survey_jobs, trained_parser, store=SqliteStore()
    )
    sql_db, sql_s = _timed_ingest(
        survey_jobs, trained_parser,
        store=SqliteStore(tmp / "replica.db", fresh=True),
    )
    assert _tables(mem_db) == _tables(sql_db)
    assert len(mem_db) == len(sql_db) == len(survey_jobs)
    sql_db.close()
    n = len(survey_jobs)
    _RESULTS["memory"] = {"seconds": mem_s, "records_per_s": n / mem_s}
    _RESULTS["sqlite"] = {"seconds": sql_s, "records_per_s": n / sql_s}
    emit(
        f"Survey ingest: store placement ({n} records, single process)",
        f"{'memory':<10} {mem_s:>8.2f} s   {n / mem_s:>10,.0f} records/s\n"
        f"{'sqlite':<10} {sql_s:>8.2f} s   {n / sql_s:>10,.0f} records/s",
    )


def test_sharded_ingest_beats_single_process(tmp_path_factory,
                                             trained_parser, survey_jobs):
    """--shards 4 vs inline on the sqlite replica: identical rows; the
    wall-clock ratio is the bench's headline number."""
    tmp = tmp_path_factory.mktemp("survey-shards")
    single_db, single_s = _timed_ingest(
        survey_jobs, trained_parser,
        store=SqliteStore(tmp / "single.db", fresh=True), shards=1,
    )
    sharded_db, sharded_s = _timed_ingest(
        survey_jobs, trained_parser,
        store=SqliteStore(tmp / "sharded.db", fresh=True), shards=4,
    )
    assert list(single_db) == list(sharded_db)
    single_db.close()
    sharded_db.close()
    n = len(survey_jobs)
    speedup = single_s / sharded_s
    _RESULTS["sqlite_shards1"] = {
        "seconds": single_s, "records_per_s": n / single_s,
    }
    _RESULTS["sqlite_shards4"] = {
        "seconds": sharded_s, "records_per_s": n / sharded_s,
        "speedup_vs_single": speedup,
    }
    emit(
        f"Survey ingest: sharding ({n} records -> sqlite replica)",
        f"{'shards=1':<10} {single_s:>8.2f} s   "
        f"{n / single_s:>10,.0f} records/s\n"
        f"{'shards=4':<10} {sharded_s:>8.2f} s   "
        f"{n / sharded_s:>10,.0f} records/s\n"
        f"speedup: {speedup:.2f}x",
    )


def test_sqlite_holds_10x_the_memory_arm(tmp_path_factory, trained_parser,
                                         survey_jobs):
    """The capacity claim: the replica ingests SCALE_FACTOR x the record
    count and still answers the Section 6 aggregates from streaming
    cursors, with the coordinator's RSS staying flat."""
    tmp = tmp_path_factory.mktemp("survey-10x")
    scaled = [
        IngestJob(domain=f"r{i}.{job.domain}", text=job.text,
                  registrar_hint=job.registrar_hint)
        for i in range(SCALE_FACTOR)
        for job in survey_jobs
    ]
    store = SqliteStore(tmp / "scaled.db", fresh=True)
    rss_before = _rss_mb()
    db, seconds = _timed_ingest(scaled, trained_parser,
                                store=store, shards=4)
    query_start = time.perf_counter()
    tables = _tables(db)
    query_s = time.perf_counter() - query_start
    rss_after = _rss_mb()
    assert len(db) == len(scaled) == SCALE_FACTOR * len(survey_jobs)
    assert tables[0]  # the aggregates answer at scale
    grown = rss_after - rss_before
    db.close()
    _RESULTS["scale10x"] = {
        "records": len(scaled),
        "seconds": seconds,
        "records_per_s": len(scaled) / seconds,
        "aggregate_query_seconds": query_s,
        "coordinator_rss_growth_mb": grown,
    }
    emit(
        f"Survey capacity: {SCALE_FACTOR}x scale "
        f"({len(scaled)} records -> sqlite replica)",
        f"ingest   {seconds:>8.2f} s   "
        f"{len(scaled) / seconds:>10,.0f} records/s\n"
        f"tables   {query_s:>8.3f} s (Section 6 aggregates)\n"
        f"coordinator RSS growth: {grown:+.1f} MiB",
    )

    artifact = os.environ.get("REPRO_BENCH_SURVEY_SCALE")
    if artifact:
        payload = {
            "bench": "survey_scale",
            "records": len(survey_jobs),
            "scale_factor": SCALE_FACTOR,
            "arms": _RESULTS,
        }
        with open(artifact, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
