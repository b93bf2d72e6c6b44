"""The four workloads: one per north-star path of the survey.

Each workload owns its inputs (made from the run's seed in
:meth:`setup`), one timed measurement (:meth:`measure`, optionally
traced) and the correctness checks that fail the run
(:meth:`check`); :meth:`finish` computes what the timed part must not
include, such as line error against the generator's labels.  A
measurement reports the same two timed end-to-end figures on every
workload -- ``rate_rps`` and ``latency_ms``, each defined per path in
the class docstrings, measured in wall time and put in reference
seconds by the program's slowdown over the run -- plus
workload-specific extras that feed the per-layer report.

Why these workloads (each layer does most of its work in one workload
and almost none in another, so a later change can show its gain on one
and its bypass case on another):

- ``bulk_parse`` -- the §6 path: ``WhoisParser.parse_many`` over fresh
  records at natural family shares, cold then warm.  All work is in
  the parse layers; none in serve, gate, store or training.
- ``serve_parse`` -- ``POST /parse`` through ``HttpFrontend.handle``.
  Per-request overhead and the batcher's top-up wait dominate with one
  request in flight at a time and at the light open-loop rate (50
  req/s, mostly batches of one); batching and queue wait at the nominal
  rate (120 req/s); a burst of requests sent at once finds the most the
  server completes per second (full batches).
- ``survey_ingest`` -- ``consistency.run_audit`` with a confidence
  ``RecordGate`` into a file-backed ``SqliteStore``.  The per-record
  gate (the per-sequence CRF path) and the store dominate; the bulk
  parse layers carry a smaller share.
- ``warm_retrain`` -- ``WarmStartRetrainer.retrain`` with one held-out
  label plus replay: the only workload where training layers work.
"""

from __future__ import annotations

import asyncio
import contextvars
import hashlib
import itertools
import json
import random
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro.consistency import run_audit
from repro.datagen import CorpusGenerator
from repro.datagen.corpus import CorpusConfig
from repro.datagen.zone import ZoneFile
from repro.eval.metrics import evaluate_parser
from repro.netsim.crawler import WhoisCrawler
from repro.netsim.internet import build_com_internet
from repro.netsim.rdap import (
    FIELD_GROUPS,
    DisagreementKnob,
    DisagreementPlan,
    RdapFace,
)
from repro.pipeline import WarmStartRetrainer
from repro.resilience import RecordGate
from repro.serve import ModelRegistry, ServeApp
from repro.serve.http import HttpFrontend
from repro.survey.ingest import jobs_from_results
from repro.survey.store import SqliteStore

import harness
import loadgen

#: at least this many repetitions, however long they take, so every
#: quartile has samples on both sides
MIN_REPS = 3


@dataclass
class Measurement:
    """What one timed measurement of a workload produced.

    The two timed figures are kept as measured, in wall time;
    :attr:`rate_rps` and :attr:`latency_ms` put them in reference
    seconds by dividing out :attr:`slowdown`, the program's slowdown
    over the measurement (:meth:`harness.SpeedProbe.slowdown`).
    """

    wall_rate_rps: float
    wall_latency_ms: float
    slowdown: float
    attempted: int
    failed: int
    #: filled in by the workload's ``finish`` once the timed part is over
    line_error: float = float("nan")
    #: per-layer and descriptive figures (``name -> value``)
    extras: dict = field(default_factory=dict)
    #: human-readable lines for the run's report
    notes: list = field(default_factory=list)
    #: raw material the checks need
    evidence: dict = field(default_factory=dict)

    @property
    def rate_rps(self) -> float:
        """The rate per reference second."""
        return self.wall_rate_rps * self.slowdown

    @property
    def latency_ms(self) -> float:
        """The latency in reference milliseconds."""
        return self.wall_latency_ms / self.slowdown


def _digest(passes) -> str:
    """SHA-256 over the JSON of every parsed record of ``passes``."""
    digest = hashlib.sha256()
    for parsed in passes:
        for record in parsed:
            digest.update(json.dumps(record.to_jsonable()).encode("utf-8"))
    return digest.hexdigest()


def _span(tracer, name: str, trace=None, **attrs):
    if tracer is None:
        return nullcontext()
    tracer.trace_id.set(trace)
    return tracer.span(name, **attrs)


class BulkParse:
    """``parse_many`` (jobs=1): a cold pass, then warm passes over fresh
    records, repeated on fresh parser copies; closed loop.

    ``rate_rps`` is the records/s of the warm passes and ``latency_ms``
    the wall time of one cold pass of ``BATCH`` records (a freshly
    started parser's first batch).  The repetitions alternate between
    ``SETS`` input sets of three batches each (more content per run,
    so the figures swing less with the draw); every repetition of a set
    parses the same batches on a fresh copy, and each pass is timed by
    its median repetition in reference seconds (:func:`harness.typical`).
    """

    name = "bulk_parse"
    #: records per pass; a repetition is one cold and two warm passes
    BATCH = 250
    #: disjoint input sets the repetitions alternate between
    SETS = 2
    #: records per pass re-parsed one at a time by the equality check
    CHECK_SAMPLE = 25

    def setup(self, deployed: harness.Deployed, seed: int) -> None:
        """Draw ``SETS`` x three disjoint batches of fresh records."""
        self.deployed = deployed
        records = harness.natural_records(
            CorpusGenerator(CorpusConfig(seed=seed)), 3 * self.SETS * self.BATCH
        )
        batches = [
            records[i * self.BATCH:(i + 1) * self.BATCH]
            for i in range(3 * self.SETS)
        ]
        self.sets = [batches[3 * k:3 * k + 3] for k in range(self.SETS)]

    def measure(self, seconds: float, probe: harness.SpeedProbe,
                tracer=None) -> Measurement:
        """Repeat cold+warm passes for ``seconds``."""
        texts = [[[r.text for r in b] for b in batches] for batches in self.sets]
        # times[set][pass]: the repetitions' seconds
        times = [[[] for _ in batches] for batches in self.sets]
        cache = {"cold": [0, 0], "warm": [0, 0]}
        # Per set, the first repetition's output: its digest, and its
        # first CHECK_SAMPLE records per pass for the check.  Nothing
        # more is kept, so the evidence adds little to the peak RSS.
        digests: list = [None] * len(self.sets)
        samples: list = [None] * len(self.sets)
        mismatched_reps = 0
        since = len(probe.samples)
        deadline = perf_counter() + seconds
        rep = 0
        while rep < MIN_REPS or perf_counter() < deadline:
            k = rep % len(self.sets)
            parser = self.deployed.fresh_parser()
            outputs = []
            for i, batch in enumerate(texts[k]):
                phase = "cold" if i == 0 else "warm"
                before = parser.encoder_cache_totals()
                with _span(tracer, "bench.pass", (rep, i), phase=phase):
                    started = perf_counter()
                    parsed = parser.parse_many(batch)
                    elapsed = perf_counter() - started
                after = parser.encoder_cache_totals()
                cache[phase][0] += after[0] - before[0]
                cache[phase][1] += after[1] - before[1]
                outputs.append(parsed)
                times[k][i].append(elapsed)
                probe.sample()
            digest = _digest(outputs)
            if digests[k] is None:
                digests[k] = digest
                samples[k] = [parsed[:self.CHECK_SAMPLE] for parsed in outputs]
            elif digest != digests[k]:
                mismatched_reps += 1
            rep += 1
        extras = {}
        for phase, (hits, misses) in cache.items():
            extras[f"parser.bulk.line_cache_hit_frac.{phase}"] = (
                hits / max(hits + misses, 1)
            )
        cold_s = harness.typical(t[0] for t in times) / len(self.sets)
        warm_s = harness.typical(x for t in times for x in t[1:]) / len(self.sets)
        measurement = Measurement(
            wall_rate_rps=2 * self.BATCH / warm_s,
            wall_latency_ms=cold_s * 1000.0,
            slowdown=probe.slowdown(since),
            attempted=rep * 3 * self.BATCH,
            failed=0,
            extras=extras,
            evidence={"samples": samples, "mismatched_reps": mismatched_reps},
        )
        measurement.notes.append(
            f"{rep} repetitions, alternating over {len(self.sets)} sets, "
            f"of 1 cold + 2 warm passes of {self.BATCH} records (median per "
            f"pass, wall time): cold {self.BATCH / cold_s:.0f} rec/s, "
            f"warm {measurement.wall_rate_rps:.0f} rec/s"
        )
        return measurement

    def finish(self, m: Measurement) -> None:
        """Line error of every batch; input properties per set (what
        one parser copy receives), averaged over the sets."""
        records = [r for batches in self.sets for b in batches for r in b]
        labelled = self.deployed.fresh_parser().label_lines_many(
            [r.text for r in records]
        )
        m.line_error = harness.line_error(labelled, records)
        m.extras.update(harness.mean_input_properties(
            [r for b in batches for r in b] for batches in self.sets
        ))

    def check(self, m: Measurement) -> list[str]:
        """``parse_many`` equals per-record ``parse()`` on a fixed sample,
        and every repetition produced the same records."""
        problems = []
        if m.evidence["mismatched_reps"]:
            problems.append(
                f"{m.evidence['mismatched_reps']} repetitions parsed the "
                "same records differently"
            )
        single = self.deployed.fresh_parser()
        for batches, outputs in zip(self.sets, m.evidence["samples"]):
            for batch, parsed in zip(batches, outputs):
                for record, got in zip(batch, parsed):
                    if got.to_jsonable() != single.parse(record.text).to_jsonable():
                        problems.append(
                            f"parse_many differs from parse() on {record.domain}"
                        )
        return problems


class ServeParse:
    """In-process ``POST /parse``, in cycles of a sequential phase (one
    client, one request in flight at a time), a light open-loop phase, a
    nominal open-loop phase and a saturation burst.

    Each cycle starts a fresh server (a fresh parser copy, cold caches)
    and warms it with the same ``WARMUP_N`` requests from ``CLIENTS``
    closed-loop clients; its measured phases then carry bodies from the
    pool in order, so a run averages over as many records as it can.
    Six cycles of a 15 s run send a little more than the pool holds, and
    the last cycle then repeats some bodies the first cycle sent -- to
    an earlier server, so no cache of the current one has seen them.
    ``latency_ms`` is the p50 latency of the sequential phase and
    ``rate_rps`` the requests per second the server answers when
    ``SATURATE_N`` requests arrive at once, each the median over cycles
    in reference seconds (:class:`harness.SpeedProbe`).

    The burst fills every batch: with 32 closed-loop clients instead,
    how many requests a batch caught depended on how the clients' next
    requests interleaved with the batcher, and the rate of five runs
    spread 0.25.  The open-loop p50s are reported per layer, in wall
    time: between Poisson arrivals the server idles, and how fast the VM
    wakes it from idle swings from minute to minute in a way no speed
    probe sees (the light p50 of two sets of ten runs spread 0.08 and
    0.28 in wall time, 0.12 and 0.22 divided by the program's slowdown).
    With one request in flight the server never idles, so its latency
    is the same per-request path -- HTTP, submit, the batcher's top-up
    wait, a batch of one, the response -- timed on a busy CPU.
    """

    name = "serve_parse"
    #: distinct request bodies: the warm-up's plus about what a 15 s
    #: run sends
    POOL = 2400
    LIGHT_RPS = 50.0
    NOMINAL_RPS = 120.0
    #: closed-loop clients of the warm-up (the batch size cap)
    CLIENTS = 32
    #: requests of the sequential phase per cycle
    SEQUENTIAL_N = 64
    #: seconds of each open-loop phase per cycle
    LIGHT_S, NOMINAL_S = 0.8, 0.8
    #: requests of the warm-up (two full batches) and of the saturation
    #: burst, all sent at once (six full batches), per cycle
    WARMUP_N, SATURATE_N = 64, 192

    def setup(self, deployed: harness.Deployed, seed: int) -> None:
        """A pool of fresh request bodies, sent in pool order."""
        self.deployed = deployed
        self.seed = seed
        self.records = harness.natural_records(
            CorpusGenerator(CorpusConfig(seed=seed)), self.POOL
        )
        self.bodies = [r.text.encode("utf-8") for r in self.records]
        self._hooks = None

    def trace_hooks(self, tracer) -> dict:
        """Request/batch link hooks for :func:`layers.install`."""
        self._hooks = _ServeHooks(tracer)
        return self._hooks.hooks()

    def work_thread(self, tracer) -> int:
        """The executor thread that ran the batches."""
        return self._hooks.batches[0].thread

    def measure(self, seconds: float, probe: harness.SpeedProbe,
                tracer=None) -> Measurement:
        """Cycles for ``seconds`` (at least ``MIN_REPS``), each on a
        fresh server."""
        return asyncio.run(self._measure(seconds, probe, tracer))

    async def _measure(self, seconds: float, probe, tracer):
        loop = asyncio.get_running_loop()
        # One executor thread next to the event loop: two threads, nproc.
        executor = ThreadPoolExecutor(max_workers=1)
        loop.set_default_executor(executor)
        hooks = self._hooks if tracer is not None else None
        keyed = list(enumerate(self.bodies))
        bodies = itertools.cycle(keyed[self.WARMUP_N:])
        rng = random.Random(self.seed)
        cache: dict[str, list[int]] = {}
        phases: dict[str, list] = {
            "warmup": [], "sequential": [], "light": [], "nominal": [],
            "saturate": [],
        }
        since = len(probe.samples)
        try:
            deadline = perf_counter() + seconds
            while len(phases["light"]) < MIN_REPS or perf_counter() < deadline:
                await self._cycle(
                    iter(keyed[:self.WARMUP_N]), bodies, rng, probe, hooks,
                    cache, phases,
                )
        finally:
            executor.shutdown(wait=True)
        return self._summarize(phases, cache, hooks, probe.slowdown(since))

    async def _cycle(self, warmup, bodies, rng, probe, hooks, cache,
                     phases) -> None:
        models = ModelRegistry()
        parser = self.deployed.fresh_parser()
        models.publish(parser)
        app = ServeApp(models)
        await app.start()
        frontend = HttpFrontend(app)

        def open_loop(rate: float, duration: float):
            return lambda on_request: loadgen.run_phase(
                frontend.handle, bodies, rate, duration, rng,
                on_request=on_request,
            )

        def closed_loop(source, total: int, clients: int = self.CLIENTS):
            return lambda on_request: loadgen.run_closed(
                frontend.handle, source, clients, total,
                on_request=on_request,
            )

        try:
            for label, run in (
                ("warmup", closed_loop(warmup, self.WARMUP_N)),
                ("sequential", closed_loop(bodies, self.SEQUENTIAL_N, 1)),
                ("light", open_loop(self.LIGHT_RPS, self.LIGHT_S)),
                ("nominal", open_loop(self.NOMINAL_RPS, self.NOMINAL_S)),
                ("saturate", closed_loop(bodies, self.SATURATE_N, self.SATURATE_N)),
            ):
                before = parser.encoder_cache_totals()
                result = await run(hooks.bind(label) if hooks else None)
                after = parser.encoder_cache_totals()
                counts = cache.setdefault(
                    "cold" if label == "warmup" else "warm", [0, 0]
                )
                counts[0] += after[0] - before[0]
                counts[1] += after[1] - before[1]
                phases[label].append(result)
                probe.sample()
                await asyncio.sleep(0.05)  # let the batcher go idle
        finally:
            await app.stop()

    @staticmethod
    def _p50_ms(cycles) -> float:
        """Median over cycles of each cycle's p50 latency (wall ms)."""
        return harness.median([
            harness.percentile(p.latencies_ms(), 50) for p in cycles
        ])

    def _summarize(self, phases, cache, hooks, slowdown) -> Measurement:
        sequential = phases["sequential"]
        light, nominal = phases["light"], phases["nominal"]
        saturated = phases["saturate"]
        sequential_p50 = self._p50_ms(sequential)
        light_p50 = self._p50_ms(light)
        nominal_p50 = self._p50_ms(nominal)
        nominal_all = [x for p in nominal for x in p.latencies_ms()]
        q, tail_ms = harness.tail(nominal_all)
        saturated_rps = harness.median([p.rate for p in saturated])
        measured = [r for p in sequential + light + nominal for r in p.requests]
        extras = {
            "serve.light_p50_ms": light_p50,
            "serve.nominal_p50_ms": nominal_p50,
            "serve.nominal_tail_ms": tail_ms,
        }
        for key, (hits, misses) in cache.items():
            extras[f"parser.bulk.line_cache_hit_frac.{key}"] = (
                hits / max(hits + misses, 1)
            )
        shed = {}
        for p in sequential + light + nominal + saturated:
            for r in p.requests:
                if r.error_code is not None:
                    shed[r.error_code] = shed.get(r.error_code, 0) + 1
        extras["serve.admission.shed"] = sum(shed.values())
        late = [r.late * 1000.0 for p in light + nominal for r in p.requests]
        extras["serve.loadgen.late_ms.p99"] = harness.tail(late)[1]
        if hooks is not None:
            extras.update(hooks.metrics())
        m = Measurement(
            wall_rate_rps=saturated_rps,
            wall_latency_ms=sequential_p50,
            slowdown=slowdown,
            attempted=len(measured),
            failed=sum(r.status != 200 for r in measured),
            extras=extras,
            evidence={
                "phases": sequential + light + nominal + saturated,
                "cycle": [phases[k][0] for k in phases],
            },
        )
        n_sequential = sum(len(p.requests) for p in sequential)
        n_light = sum(len(p.requests) for p in light)
        n_saturated = sum(len(p.requests) for p in saturated)
        m.notes.append(
            f"sequential, one request in flight: p50 {sequential_p50:.2f} "
            f"ms (median of {len(sequential)} cycles, wall time, "
            f"n={n_sequential})"
        )
        m.notes.append(
            f"light {self.LIGHT_RPS:.0f} req/s open loop: p50 "
            f"{light_p50:.2f} ms (median of {len(light)} cycles, wall "
            f"time, n={n_light})"
        )
        m.notes.append(
            f"nominal {self.NOMINAL_RPS:.0f} req/s open loop: p50 "
            f"{nominal_p50:.2f} ms (median of cycles, wall time), "
            f"p{q:g} {tail_ms:.2f} ms (wall time, n={len(nominal_all)})"
        )
        m.notes.append(
            f"saturation, a burst of {self.SATURATE_N} requests: "
            f"{saturated_rps:.1f} req/s completed (wall time, median of "
            f"{len(saturated)} cycles, n={n_saturated}); "
            f"shed {shed or 0}"
        )
        return m

    def finish(self, m: Measurement) -> None:
        """Line error and input properties of what one server receives
        in its cycle."""
        sent = [
            self.records[r.key]
            for p in m.evidence["cycle"] for r in p.requests
        ]
        labelled = self.deployed.fresh_parser().label_lines_many(
            [r.text for r in sent]
        )
        m.line_error = harness.line_error(labelled, sent)
        m.extras.update(harness.input_properties(sent))

    def check(self, m: Measurement) -> list[str]:
        """Every 200 body is the JSON of the reference parse of its text."""
        keys = sorted({
            r.key for p in m.evidence["phases"] for r in p.requests
        })
        reference = self.deployed.fresh_parser().parse_many(
            [self.records[k].text for k in keys]
        )
        single = self.deployed.fresh_parser()
        problems = []
        for k, parsed in list(zip(keys, reference))[:25]:
            # the reference itself against per-record parse()
            if single.parse(self.records[k].text) != parsed:
                problems.append(
                    f"reference parse_many differs from parse() on "
                    f"{self.records[k].domain}"
                )
        expected = {
            k: loadgen.body_digest(json.dumps(parsed.to_jsonable(), indent=2))
            for k, parsed in zip(keys, reference)
        }
        wrong = sum(
            r.digest != expected[r.key]
            for p in m.evidence["phases"] for r in p.requests
            if r.status == 200
        )
        if wrong:
            problems.append(f"{wrong} responses differ from the reference parse")
        return problems


class _ServeHooks:
    """Traced-run bookkeeping that ties request spans to batch spans.

    A request's ``submit`` span is remembered under the identity of the
    text it carries; the ``parse_many`` call that receives that text
    links back to it, which gives each request's queue wait (submit to
    batch start) and each batch's size.
    """

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.waiting: dict[int, object] = {}
        self.batches: list = []
        self.writers: list = []
        #: id(writer) -> when ``ServeApp.parse_text`` returned
        self.returned: dict[int, float] = {}
        self._writer = contextvars.ContextVar("perfbench_writer")

    def hooks(self) -> dict:
        """Keyword hooks for :func:`layers.install`."""
        def on_submit(span, args, _kwargs):
            self.waiting[id(args[1])] = span

        def on_batch(span, args, _kwargs):
            links = [
                self.waiting.pop(id(text))
                for text in args[1] if id(text) in self.waiting
            ]
            if links:
                span.links.extend(links)
                self.batches.append(span)

        def on_parse_text(span, _args, _kwargs, _result):
            self.returned[id(self._writer.get())] = span.end

        return {
            "on_submit": on_submit,
            "on_batch": on_batch,
            "on_parse_text": on_parse_text,
        }

    def bind(self, label: str):
        """``on_request`` hook of one phase: a trace id per request."""
        def on_request(index: int, writer) -> None:
            self.tracer.trace_id.set((label, index))
            self._writer.set(writer)
            self.writers.append(writer)

        return on_request

    def metrics(self) -> dict:
        """Queue wait, batch size, batch exec and respond figures."""
        waits = [
            (batch.start - link.start) * 1000.0
            for batch in self.batches for link in batch.links
        ]
        sizes = [len(batch.links) for batch in self.batches]
        execs = [batch.duration * 1000.0 for batch in self.batches]
        responds = [
            (w.written_at - self.returned[id(w)]) * 1000.0
            for w in self.writers if id(w) in self.returned
        ]
        return {
            "serve.batcher.queue_wait_ms.p50": harness.percentile(waits, 50),
            "serve.batcher.queue_wait_ms.p99": harness.tail(waits)[1],
            "serve.batcher.batch_size.mean": sum(sizes) / max(len(sizes), 1),
            "serve.batcher.batch_size.p99": harness.tail(sizes)[1],
            "serve.batcher.exec_ms.p50": harness.percentile(execs, 50),
            "serve.http.respond_ms.p50": harness.percentile(responds, 50),
        }


class SurveyIngest:
    """Gated, audited ingest of crawled records into a sqlite file.

    The crawl is cut into ``SETS`` slices of ``JOBS`` records and the
    repetitions alternate between them (more content per run, so the
    figures swing less with the draw).  ``latency_ms`` is the wall time
    of one slice's ingest (each on a fresh parser and a fresh database
    file): each slice's median repetition in reference seconds
    (:func:`harness.typical`), averaged over the slices; ``rate_rps``
    the crawled records ingested per second of it.
    """

    name = "survey_ingest"
    #: slices of the crawl the repetitions alternate between
    SETS = 2
    #: crawled records per slice (a fixed count, so the work per
    #: repetition does not vary with the fault draw)
    JOBS = 80
    #: zone domains, drawn at natural family shares; faults drop a few,
    #: and the slices take the first ``SETS * JOBS`` crawled records
    ZONE = 200
    #: records whose mean line marginal falls below this are quarantined
    MIN_CONFIDENCE = 0.9
    INJECT_RATE = 0.2

    def setup(self, deployed: harness.Deployed, seed: int,
              workdir: Path) -> None:
        """Crawl a zone under ``default_hostile`` faults and stand up its
        RDAP face with a seeded disagreement plan."""
        self.deployed = deployed
        self.workdir = workdir
        generator = CorpusGenerator(CorpusConfig(seed=seed))
        drawn = harness.natural_registrations(generator, self.ZONE)
        self.registrations = {r.domain: r for r in drawn}
        zone = ZoneFile(tld="com", domains=[r.domain for r in drawn])
        internet, _clock, self.truth = build_com_internet(
            generator, zone, self.registrations,
            faults="default_hostile", fault_seed=seed,
        )
        self.jobs = jobs_from_results(
            WhoisCrawler(internet).crawl(zone)
        )[:self.SETS * self.JOBS]
        if len(self.jobs) < self.SETS * self.JOBS:
            raise RuntimeError(
                f"the crawl returned {len(self.jobs)} records, fewer than "
                f"{self.SETS} x {self.JOBS}"
            )
        self.slices = [
            self.jobs[k * self.JOBS:(k + 1) * self.JOBS]
            for k in range(self.SETS)
        ]
        self.plan = DisagreementPlan(
            {"*": DisagreementKnob(rate=self.INJECT_RATE, fields=FIELD_GROUPS)},
            seed=seed,
        )
        self.face = RdapFace(self.registrations, plan=self.plan)

    def measure(self, seconds: float, probe: harness.SpeedProbe,
                tracer=None) -> Measurement:
        """Ingest one slice per repetition, each on a fresh parser and a
        fresh database file."""
        times: list[list[float]] = [[] for _ in self.slices]
        evidence = {"rows": {}, "quarantined": set(), "audits": {}}
        #: jobs per slice neither stored nor quarantined
        missing = [0] * len(self.slices)
        since = len(probe.samples)
        deadline = perf_counter() + seconds
        rep = 0
        while rep < MIN_REPS or perf_counter() < deadline:
            k = rep % len(self.slices)
            parser = self.deployed.fresh_parser()
            path = self.workdir / f"ingest-{rep}.db"
            store = SqliteStore(path, fresh=True)
            gate = RecordGate(min_mean_confidence=self.MIN_CONFIDENCE)
            with _span(tracer, "bench.ingest", rep):
                started = perf_counter()
                db, _summary = run_audit(
                    self.slices[k], parser, rdap_lookup=self.face.lookup,
                    store=store, shards=1, gate=gate,
                )
                elapsed = perf_counter() - started
            times[k].append(elapsed)
            probe.sample()
            if len(times[k]) == 1:
                rows = {e.domain: store.get_record(e.domain) for e in db}
                quarantined = set(db.quarantined_domains())
                missing[k] = len(self.slices[k]) - len(rows) - len(quarantined)
                evidence["rows"].update(rows)
                evidence["quarantined"] |= quarantined
                evidence["audits"].update(
                    (a.domain, a) for a in store.iter_audits()
                )
            db.close()
            for suffix in ("", "-wal", "-shm"):
                Path(f"{path}{suffix}").unlink(missing_ok=True)
            rep += 1
        n_quarantined = len(evidence["quarantined"])
        extras = {
            "resilience.admitted_frac": (
                len(evidence["rows"]) / max(len(self.jobs), 1)
            ),
            "resilience.quarantined": n_quarantined,
        }
        slice_s = harness.typical(times) / len(times)
        m = Measurement(
            wall_rate_rps=self.JOBS / slice_s,
            wall_latency_ms=slice_s * 1000.0,
            slowdown=probe.slowdown(since),
            attempted=rep * self.JOBS,
            failed=sum(n * len(t) for n, t in zip(missing, times)),
            extras=extras,
            evidence=evidence,
        )
        m.notes.append(
            f"{rep} ingests, alternating over {len(times)} slices of "
            f"{self.JOBS} crawled records ({len(evidence['rows'])} of "
            f"{len(self.jobs)} admitted, {n_quarantined} quarantined): "
            f"{m.wall_rate_rps:.1f} rec/s, {m.wall_latency_ms:.0f} ms per "
            f"slice (median of each slice, wall time)"
        )
        return m

    def finish(self, m: Measurement) -> None:
        """Line error of the admitted intact records; input properties
        per slice, averaged."""
        admitted = [
            self.truth[j.domain] for j in self.jobs
            if j.domain in m.evidence["rows"] and self._intact(j)
        ]
        labelled = self.deployed.fresh_parser().label_lines_many(
            [r.text for r in admitted]
        )
        m.line_error = harness.line_error(labelled, admitted)
        m.extras.update(harness.mean_input_properties(
            [self.truth[j.domain] for j in jobs] for jobs in self.slices
        ))
        m.extras["input.quarantined_share"] = (
            len(m.evidence["quarantined"]) / len(self.jobs)
        )

    def _intact(self, job) -> bool:
        """Whether the fault plan left this job's record untouched."""
        return job.text == self.truth[job.domain].text

    def check(self, m: Measurement) -> list[str]:
        """Rows plus quarantine equal jobs; stored parses equal the
        ``parse_many`` reference; verdicts match the plan's oracle on
        records the fault plan left intact."""
        rows, quarantined = m.evidence["rows"], m.evidence["quarantined"]
        audits = m.evidence["audits"]
        problems = []
        if len(rows) + len(quarantined) != len(self.jobs):
            problems.append(
                f"{len(rows)} rows + {len(quarantined)} quarantined != "
                f"{len(self.jobs)} jobs"
            )
        admitted = [j for j in self.jobs if j.domain in rows]
        reference = self.deployed.fresh_parser().parse_many(
            [j.text for j in admitted]
        )
        wrong_rows = sum(
            rows[j.domain] != parsed.to_jsonable()
            for j, parsed in zip(admitted, reference)
        )
        if wrong_rows:
            problems.append(f"{wrong_rows} stored rows differ from parse_many")
        wrong_verdicts = []
        for job in admitted:
            if not self._intact(job):
                continue
            registration = self.registrations[job.domain]
            want = "disagree" if self.plan.is_injected(registration) else "agree"
            audit = audits.get(job.domain)
            got = audit.verdict if audit is not None else None
            if got != want:
                wrong_verdicts.append(f"{job.domain}: {got} != {want}")
        if wrong_verdicts:
            problems.append(
                f"{len(wrong_verdicts)} audit verdicts differ from the "
                f"disagreement plan: {wrong_verdicts[:3]}"
            )
        return problems


class WarmRetrain:
    """Repeated warm retrains on copies of the deployed parser, one
    held-out label plus a replay sample; the repetitions cycle through
    ``LABELS`` labels, so each retrain's label differs from the last
    one's and every label's retrain repeats.

    ``latency_ms`` is the wall time of one retrain: the mean over labels
    of each label's median retrain in reference seconds
    (:func:`harness.typical`);
    ``rate_rps`` the records it trains on (label plus replay) per
    second of it.
    """

    name = "warm_retrain"
    LABELS = 3
    #: allowed rise of in-distribution line error across a retrain
    FORGET_BOUND = 0.02

    def setup(self, deployed: harness.Deployed, seed: int) -> None:
        """Held-out labels from the seed; fixed evaluation sets."""
        self.deployed = deployed
        generator = CorpusGenerator(CorpusConfig(seed=seed))
        self.labels = harness.heldout_records(generator, self.LABELS)
        evaluation = CorpusGenerator(CorpusConfig(seed=harness.TRAIN_SEED + 1))
        self.heldout_eval = harness.heldout_records(evaluation, 30)
        self.mix_eval = harness.natural_records(evaluation, 300)
        self.known_eval = [
            r for r in self.mix_eval if r.schema_family != harness.HELDOUT_FAMILY
        ][:60]

    def measure(self, seconds: float, probe: harness.SpeedProbe,
                tracer=None) -> Measurement:
        """Retrain for ``seconds``; keep the first ``MIN_REPS``
        candidates for :meth:`finish` and :meth:`check` to evaluate."""
        times: list[list[float]] = [[] for _ in self.labels]
        candidates = []
        since = len(probe.samples)
        deadline = perf_counter() + seconds
        rep = 0
        while rep < MIN_REPS or perf_counter() < deadline:
            candidate = self.deployed.fresh_parser()
            label = self.labels[rep % len(self.labels)]
            retrainer = WarmStartRetrainer(replay_size=harness.REPLAY_SIZE)
            with _span(tracer, "bench.retrain", rep):
                started = perf_counter()
                report = retrainer.retrain(
                    candidate, [label], replay=self.deployed.train
                )
                elapsed = perf_counter() - started
            times[rep % len(self.labels)].append(elapsed)
            probe.sample()
            if rep < MIN_REPS:  # the ones finish and check evaluate
                candidates.append((candidate, label, report))
            rep += 1
        n_trained = candidates[0][2].n_new + candidates[0][2].n_replay
        retrain_s = harness.typical(times) / len(times)
        m = Measurement(
            wall_rate_rps=n_trained / retrain_s,
            wall_latency_ms=retrain_s * 1000.0,
            slowdown=probe.slowdown(since),
            attempted=rep,
            failed=0,
            evidence={"candidates": candidates},
        )
        m.notes.append(
            f"{rep} warm retrains on 1 held-out label + "
            f"{n_trained - 1} replay records: {m.wall_latency_ms:.0f} ms "
            f"each (mean over {len(times)} labels of each one's median, "
            f"wall time)"
        )
        return m

    def finish(self, m: Measurement) -> None:
        """Median line error of the retrained candidates on a natural
        mix; held-out family error after the first retrain."""
        candidates = m.evidence["candidates"]
        mix_text = [r.text for r in self.mix_eval]
        m.line_error = harness.median([
            harness.line_error(c.label_lines_many(mix_text), self.mix_eval)
            for c, _label, _report in candidates
        ])
        m.extras.update(harness.input_properties(
            [rec for _c, label, _r in candidates
             for rec in (label, *self.deployed.train[:harness.REPLAY_SIZE])]
        ))
        m.extras["retrain.heldout_line_error"] = evaluate_parser(
            candidates[0][0], self.heldout_eval
        ).line_error_rate

    def check(self, m: Measurement) -> list[str]:
        """Each retrain keeps in-distribution error within its bound and
        cuts the held-out family's error."""
        deployed = self.deployed.parser
        known_before = evaluate_parser(deployed, self.known_eval).line_error_rate
        heldout_before = evaluate_parser(
            deployed, self.heldout_eval
        ).line_error_rate
        problems = []
        for candidate, label, _report in m.evidence["candidates"]:
            known = evaluate_parser(candidate, self.known_eval).line_error_rate
            if known > known_before + self.FORGET_BOUND:
                problems.append(
                    f"retrain on {label.domain}: in-distribution line error "
                    f"{known:.4f} > {known_before:.4f} + {self.FORGET_BOUND}"
                )
            heldout = evaluate_parser(
                candidate, self.heldout_eval
            ).line_error_rate
            if heldout >= heldout_before:
                problems.append(
                    f"retrain on {label.domain}: held-out line error "
                    f"{heldout:.4f} did not fall from {heldout_before:.4f}"
                )
        return problems


WORKLOADS = {
    cls.name: cls for cls in (BulkParse, ServeParse, SurveyIngest, WarmRetrain)
}
