"""The cross-protocol consistency engine, end to end.

One ground-truth zone serves both protocol front doors: the netsim
WHOIS servers render each registration through its registrar's schema
family, and :class:`~repro.netsim.rdap.RdapFace` serves the RDAP object
for the same registration.  The auditor crawls the WHOIS side, parses
it with a *trained* CRF (not gold labels -- parser noise is part of the
claim), diffs every domain against its RDAP payload through the
sharded-ingest machinery, and must get the answer exactly right:

- with no injected disagreement, the audit reports **zero** false
  positives -- every rendering quirk the schema families throw at it
  (truncated status lists, upper-cased nameservers, decorated contact
  lines, liveness-only statuses) is canonicalized away;
- with a seeded :class:`~repro.netsim.rdap.DisagreementPlan` installed,
  the measured per-registrar inconsistency rates match the injected
  rates *exactly*, domain for domain, because the plan is a pure
  function of ``(seed, domain)`` and therefore its own oracle;
- audit rows are identical across in-memory/file stores and shard counts;
- a registrar-wide injection (rate 1.0) drives the
  :class:`~repro.pipeline.drift.RegistrarDisagreementSignal` to a drift
  alert that enters the §5.3 maintenance loop via ``ingest_alert`` and
  comes out the other end as a retrained, holdout-gated, hot-swapped
  model.

Scale with ``REPRO_BENCH_CONSISTENCY_DOMAINS`` (zone size, default 400)
and ``REPRO_BENCH_CONSISTENCY_RATE`` (injected rate, default 0.2) on
top of the usual knobs.  Set ``REPRO_BENCH_CONSISTENCY`` to a path to
archive the measured rates as JSON (the ``BENCH_consistency.json`` CI
artifact).
"""

from __future__ import annotations

import copy
import json
import os
import time

import pytest
from conftest import SEED, emit

from repro.consistency import run_audit
from repro.datagen import CorpusGenerator
from repro.datagen.corpus import CorpusConfig
from repro.eval.experiments import make_parser
from repro.netsim.crawler import WhoisCrawler
from repro.netsim.internet import build_com_internet
from repro.netsim.rdap import DisagreementKnob, DisagreementPlan, RdapFace
from repro.pipeline import (
    CorpusOracle,
    MaintenanceConfig,
    MaintenanceLoop,
    RegistrarDisagreementSignal,
)
from repro.serve import ModelRegistry
from repro.survey.ingest import jobs_from_results
from repro.survey.normalize import canonical_registrar
from repro.survey.report import format_inconsistency_table
from repro.survey.store import SqliteStore

CONS_DOMAINS = int(os.environ.get("REPRO_BENCH_CONSISTENCY_DOMAINS", 400))
INJECT_RATE = float(os.environ.get("REPRO_BENCH_CONSISTENCY_RATE", 0.2))
#: Exactness needs a competently trained parser: below ~150 training
#: records the CRF mislabels whole registrant blocks, and those parser
#: failures would (correctly) surface as spurious disagreements.
TRAIN_FLOOR = 150

ALL_FIELDS = ("dates", "nameservers", "registrar", "statuses", "registrant")

_RESULTS: dict = {}


@pytest.fixture(scope="module")
def audit_world():
    """(parser, train, registrations, jobs, truth): both protocol faces
    of one crawled zone plus the CRF that parses the WHOIS side."""
    n_train = max(
        int(os.environ.get("REPRO_BENCH_TRAIN", 300)), TRAIN_FLOOR
    )
    train_gen = CorpusGenerator(CorpusConfig(seed=SEED))
    train = train_gen.labeled_corpus(n_train)
    parser = make_parser(train)
    zone_gen = CorpusGenerator(CorpusConfig(seed=SEED + 11))
    zone, registrations = zone_gen.zone(CONS_DOMAINS)
    internet, clock, truth = build_com_internet(
        zone_gen, zone, registrations
    )
    jobs = jobs_from_results(WhoisCrawler(internet).crawl(zone))
    return parser, train, registrations, jobs, truth


def _expected(plan, registrations, jobs):
    """The plan's oracle restricted to the domains the crawl reached."""
    crawled = {job.domain for job in jobs}
    per_registrar = plan.expected_domains(
        registration
        for domain, registration in registrations.items()
        if domain in crawled
    )
    every = set().union(*per_registrar.values()) if per_registrar else set()
    return per_registrar, every


def test_agreeing_faces_audit_clean(audit_world):
    """Zero false positives: no injection, no disagreement, period."""
    parser, _train, registrations, jobs, _truth = audit_world
    face = RdapFace(registrations)
    db, summary = run_audit(jobs, parser, rdap_lookup=face.lookup)
    assert summary.disagree == 0, [
        (a.domain, a.registrar, a.diffs)
        for a in db.store.iter_audits() if a.verdict == "disagree"
    ]
    assert summary.agree == len(jobs)
    assert summary.incomparable == 0
    assert summary.disagreement_rate == 0.0
    db.close()
    _RESULTS["baseline"] = {
        "audited": summary.total,
        "false_positives": 0,
    }
    emit(
        "Consistency baseline: agreeing protocol faces",
        f"audited {summary.total} domains, 0 disagreements "
        f"(zero false positives across every schema family)",
    )


def test_injected_rates_recovered_exactly(audit_world):
    """Measured inconsistency == injected inconsistency, domain for
    domain and registrar for registrar."""
    parser, _train, registrations, jobs, _truth = audit_world
    plan = DisagreementPlan(
        {"*": DisagreementKnob(rate=INJECT_RATE, fields=ALL_FIELDS)},
        seed=SEED + 3,
    )
    face = RdapFace(registrations, plan=plan)
    start = time.perf_counter()
    db, summary = run_audit(
        jobs, parser, rdap_lookup=face.lookup, shards=2
    )
    seconds = time.perf_counter() - start
    per_registrar, every = _expected(plan, registrations, jobs)
    measured = {
        audit.domain
        for audit in db.store.iter_audits()
        if audit.verdict == "disagree"
    }
    assert measured == every  # exact: no false positives, no misses
    assert summary.disagree == len(every)
    # Per-registrar exactness, grouped by the *ground-truth* registrar:
    # the audit row's own attribution prefers the RDAP side, and this
    # plan perturbs the registrar field itself.
    measured_by_registrar: dict = {}
    for domain in measured:
        name = canonical_registrar(registrations[domain].registrar_name)
        measured_by_registrar.setdefault(name, set()).add(domain)
    assert measured_by_registrar == per_registrar
    assert sum(d for _a, d in summary.registrar_counts.values()) == len(every)
    table = format_inconsistency_table(
        summary,
        title=(f"WHOIS/RDAP inconsistency by registrar "
               f"(injected rate {INJECT_RATE:.0%})"),
        top=12,
    )
    db.close()
    _RESULTS["injection_recovery"] = {
        "audited": summary.total,
        "injected": len(every),
        "measured": len(measured),
        "false_positives": len(measured - every),
        "misses": len(every - measured),
        "disagreement_rate": summary.disagreement_rate,
        "audit_seconds": seconds,
        "domains_per_s": summary.total / seconds if seconds else None,
    }
    emit("Injected-disagreement recovery", table)


def test_audit_rows_identical_across_backends_and_shards(
    audit_world, tmp_path
):
    parser, _train, registrations, jobs, _truth = audit_world
    plan = DisagreementPlan(
        {"*": DisagreementKnob(rate=INJECT_RATE, fields=ALL_FIELDS)},
        seed=SEED + 3,
    )

    def run(store, shards):
        db, _summary = run_audit(
            jobs, parser,
            rdap_lookup=RdapFace(registrations, plan=plan).lookup,
            store=store, shards=shards,
        )
        rows = [
            (a.domain, a.registrar, a.verdict, a.compared, a.diffs)
            for a in db.store.iter_audits()
        ]
        db.close()
        return rows

    baseline = run(SqliteStore(), 1)
    assert baseline
    for label, store, shards in (
        ("sqlite-1", SqliteStore(tmp_path / "a1.db", fresh=True), 1),
        ("sqlite-4", SqliteStore(tmp_path / "a4.db", fresh=True), 4),
        ("memory-4", SqliteStore(), 4),
    ):
        assert run(store, shards) == baseline, label
    _RESULTS["equivalence"] = {
        "rows": len(baseline),
        "arms": ["memory-1", "sqlite-1", "sqlite-4", "memory-4"],
    }
    emit(
        "Audit-table equivalence",
        f"{len(baseline)} audit rows identical across in-memory/file "
        f"stores and 1/4-shard ingest",
    )


def test_registrar_wide_change_rides_the_maintenance_loop(audit_world):
    """A registrar whose RDAP face wholly contradicts its WHOIS face is
    a schema-change signal; it must traverse alert -> label -> retrain
    -> hot-swap."""
    parser, train, registrations, jobs, truth = audit_world
    crawled = {job.domain for job in jobs}
    by_registrar: dict = {}
    for domain, registration in registrations.items():
        if domain in crawled:
            name = canonical_registrar(registration.registrar_name)
            by_registrar.setdefault(name, []).append(domain)
    target, target_domains = max(
        by_registrar.items(), key=lambda item: len(item[1])
    )
    # Everything but the registrar field itself is perturbed: the audit
    # attributes rows to the RDAP-side registrar, and a registrar whose
    # *name* changed would (correctly) scatter across invented names
    # instead of concentrating the per-registrar rate.
    plan = DisagreementPlan(
        {target: DisagreementKnob(
            rate=1.0,
            fields=("dates", "nameservers", "statuses", "registrant"),
        )},
        seed=SEED + 5,
    )
    face = RdapFace(registrations, plan=plan)
    db, summary = run_audit(jobs, parser, rdap_lookup=face.lookup)
    audited, disagreeing = summary.registrar_counts[target]
    assert disagreeing == audited == len(target_domains)

    signal = RegistrarDisagreementSignal(
        rate_threshold=0.9, min_audits=min(5, len(target_domains))
    )
    texts = {job.domain: job.text for job in jobs}
    alerts = signal.scan(db.store.iter_audits(), texts.get)
    db.close()
    assert len(alerts) == 1
    alert = alerts[0]
    assert target.lower().split()[0] in alert.family_id

    holdout_gen = CorpusGenerator(CorpusConfig(seed=SEED + 1))
    models = ModelRegistry()
    models.publish(copy.deepcopy(parser))
    loop = MaintenanceLoop(
        models,
        CorpusOracle(list(truth.values())),
        replay=train,
        holdout=holdout_gen.labeled_corpus(40),
        config=MaintenanceConfig(replay_size=len(train)),
    )
    event = loop.ingest_alert(alert)
    assert event.kind == "activated", event
    assert models.current_version == "v0002"
    assert event.retrain is not None
    _RESULTS["maintenance_loop"] = {
        "registrar": target,
        "disagreeing_domains": disagreeing,
        "alert_family": alert.family_id,
        "outcome": event.kind,
        "activated_version": event.version,
    }
    emit(
        "Registrar-wide drift through the maintenance loop",
        f"registrar {target}: {disagreeing}/{audited} domains disagree\n"
        f"alert {alert.family_id} -> labeled "
        f"{loop.report.label_requests[0].domain} -> retrained -> "
        f"{event.kind} as {event.version}",
    )

    artifact = os.environ.get("REPRO_BENCH_CONSISTENCY")
    if artifact:
        payload = {
            "bench": "consistency",
            "domains": CONS_DOMAINS,
            "injected_rate": INJECT_RATE,
            "seed": SEED,
            "arms": _RESULTS,
        }
        with open(artifact, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
