"""Survey ingest: the one path from crawled records into the survey store.

The paper's survey parses 102M records; one process's ``parse_many``
saturates one machine's cores but still funnels every normalized row
through a single writer.  :func:`sharded_ingest` completes the
``audioscavenger/whoisd`` shape -- bulk ingest into a real database --
by running the whole admit -> parse -> normalize -> write pipeline per
shard:

1. the coordinator splits the ingest jobs into ``shards`` contiguous
   chunks (a static work queue: chunk boundaries are deterministic, so
   sharded output is row-identical to single-process output);
2. each worker process (reusing the fork/mmap-friendly pool-initializer
   pattern of :meth:`WhoisParser.parse_many`) gates, parses, and
   normalizes its chunk into a private sqlite shard file, through the
   same body the single-process path runs;
3. the coordinator merges the shard files into the destination store in
   shard order (``ATTACH`` + ``INSERT .. SELECT``) and re-accounts
   quarantined domains into the crawl stats.

Workers never ship parsed records back through the pipe -- only small
quarantine summaries -- so the coordinator's memory stays flat no
matter the record count.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from repro import obs
from repro.errors import error_from_payload
from repro.survey.database import SurveyDatabase
from repro.survey.store import SqliteStore

if TYPE_CHECKING:
    from repro.errors import CrawlError
    from repro.netsim.crawler import CrawlStats
    from repro.resilience.quarantine import RecordGate


@dataclass(frozen=True)
class IngestJob:
    """One record queued for survey ingest.

    ``rdap``, when set, carries the domain's RDAP payload: the worker
    then also diffs the parse against it (the cross-protocol audit of
    :mod:`repro.consistency`) and files the verdict in the store's
    audit table, in the same pass that ingests the entry.
    """

    domain: str
    text: str
    registrar_hint: str | None = None
    blacklisted: bool = False
    rdap: dict | None = None


def jobs_from_results(
    results: Iterable,
    *,
    blacklisted_domains: set[str] | None = None,
) -> list[IngestJob]:
    """Turn crawl results into ingest jobs (thick-carrying ones only).

    The registrar named by each thin record rides along as the hint used
    when the thick record's own registrar line is missing -- the
    two-step thin -> thick data flow of Section 4.1.
    """
    from repro.datagen.thin import extract_registrar

    blacklisted = blacklisted_domains or set()
    jobs = []
    for result in results:
        if getattr(result, "thick_text", None) is None:
            continue
        thin_text = getattr(result, "thin_text", None)
        jobs.append(IngestJob(
            domain=result.domain,
            text=result.thick_text,
            registrar_hint=extract_registrar(thin_text) if thin_text else None,
            blacklisted=result.domain in blacklisted,
        ))
    return jobs


#: Per-worker parser, installed once by the pool initializer (inherited
#: copy-on-write under fork; pickled once per worker under spawn, which
#: stays small for mmap-loaded models).
_INGEST_PARSER = None


def _init_ingest_worker(parser) -> None:
    global _INGEST_PARSER
    _INGEST_PARSER = parser


def _ingest_into(
    db: SurveyDatabase,
    jobs: Sequence[IngestJob],
    parser,
    gate: "RecordGate | None",
) -> "list[tuple[str, CrawlError]]":
    """Gate, parse, and file ``jobs`` into ``db``: the body both the
    inline path and every shard worker run.

    Returns ``(domain, error)`` for each job the gate quarantined.
    """
    admitted = []
    quarantined = []
    for job in jobs:
        error = gate.inspect(job.domain, job.text, parser) if gate else None
        if error is None:
            admitted.append(job)
            continue
        db.add_quarantined(job.domain, job.text, error)
        quarantined.append((job.domain, error))
    parsed_records = parser.parse_many([job.text for job in admitted])
    for job, parsed in zip(admitted, parsed_records):
        db.add_parsed(
            job.domain, parsed,
            registrar_hint=job.registrar_hint,
            blacklisted=job.blacklisted,
        )
        audit = _audit_for(job, parsed)
        if audit is not None:
            db.append_audit(audit)
    db.flush()
    return quarantined


def _ingest_shard(payload):
    """Worker body: ingest one shard into its own sqlite file.

    Returns the quarantine summaries; the rows themselves stay in the
    shard file for the coordinator's merge.
    """
    jobs, shard_path, batch_size, gate = payload
    db = SurveyDatabase(
        SqliteStore(shard_path, batch_size=batch_size, fresh=True)
    )
    try:
        quarantined = _ingest_into(db, jobs, _INGEST_PARSER, gate)
    finally:
        db.close()
    return [(domain, error.to_payload()) for domain, error in quarantined]


def _audit_for(job: IngestJob, parsed):
    """The job's consistency verdict, when it carries an RDAP payload."""
    if job.rdap is None:
        return None
    from repro.consistency.audit import audit_parsed

    return audit_parsed(job.domain, parsed, job.rdap)


def sharded_ingest(
    jobs: Sequence[IngestJob],
    parser,
    *,
    store: SqliteStore | None = None,
    shards: int = 4,
    gate: "RecordGate | None" = None,
    stats: "CrawlStats | None" = None,
    start_method: str | None = None,
    batch_size: int = 2000,
) -> SurveyDatabase:
    """Ingest ``jobs`` into ``store`` across ``shards`` worker processes.

    ``store`` defaults to an in-memory :class:`SqliteStore`.  Row-for-row
    identical to single-process ingest of the same jobs (shards are
    contiguous chunks, merged in shard order).  Records a
    :class:`~repro.resilience.RecordGate` rejects land in the store's
    quarantine table; ``stats``, when given, re-accounts those domains
    from ``ok`` to ``quarantined``.  Runs in process for tiny inputs or
    ``shards <= 1``.
    """
    db = SurveyDatabase(store)
    jobs = list(jobs)
    if shards <= 1 or len(jobs) < 2 * shards:
        quarantined = _ingest_into(db, jobs, parser, gate)
    else:
        quarantined = _ingest_shards(
            jobs, parser, db.store,
            shards=shards, gate=gate,
            start_method=start_method, batch_size=batch_size,
        )
    if stats is not None:
        for domain, error in quarantined:
            stats.record_quarantine(domain, error)
    return db


def _ingest_shards(
    jobs: list[IngestJob],
    parser,
    destination: SqliteStore,
    *,
    shards: int,
    gate: "RecordGate | None",
    start_method: str | None,
    batch_size: int,
) -> "list[tuple[str, CrawlError]]":
    """Fan ``jobs`` out to worker processes, each writing a shard file in
    a temporary directory (beside a file destination, so the merge stays
    on one filesystem), then merge the shards into ``destination``."""
    import multiprocessing as mp

    method = start_method
    if method is None:
        method = "fork" if "fork" in mp.get_all_start_methods() else None
    ctx = mp.get_context(method)
    on_disk = destination.path != ":memory:"
    bounds = [len(jobs) * i // shards for i in range(shards + 1)]
    quarantined = []
    with tempfile.TemporaryDirectory(
        prefix=".shards-",
        dir=Path(destination.path).parent if on_disk else None,
    ) as shard_dir:
        shard_paths = [str(Path(shard_dir) / f"shard{i}.db")
                       for i in range(shards)]
        payloads = [
            (jobs[bounds[i]:bounds[i + 1]], shard_paths[i], batch_size, gate)
            for i in range(shards)
        ]
        with obs.trace("survey.sharded_ingest_seconds", shards=str(shards)):
            with ctx.Pool(
                shards, initializer=_init_ingest_worker, initargs=(parser,)
            ) as pool:
                parts = pool.map(_ingest_shard, payloads)
            for shard_path, summaries in zip(shard_paths, parts):
                obs.inc(
                    "survey.sharded_rows", destination.merge_file(shard_path)
                )
                quarantined.extend(
                    (domain, error_from_payload(payload))
                    for domain, payload in summaries
                )
    return quarantined


__all__ = ["IngestJob", "jobs_from_results", "sharded_ingest"]
