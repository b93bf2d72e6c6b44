"""Which program functions the traced run wraps, and what they report.

Every traced run wraps the same public functions, whatever the
workload, so every per-layer figure exists on every workload: a layer
the workload never calls reports zero, which is the bypass case a later
change's claim needs.  The wrappers live here, outside the program;
``src/`` carries no spans of its own.
"""

from __future__ import annotations

import repro.consistency.audit
import repro.crf.model
import repro.crf.train
from repro.crf.batch import EncodedBatch
from repro.domain.spec import DomainSpec
from repro.parser.bulk import LineEncoder
from repro.parser.statistical import WhoisParser
from repro.pipeline.retrain import WarmStartRetrainer
from repro.resilience.quarantine import RecordGate
from repro.serve.app import ServeApp
from repro.serve.batcher import MicroBatcher
from repro.survey.database import SurveyDatabase
from repro.whois.features import WhoisFeaturizer

import tracing

#: span name -> per-layer self-time metric
SELF_TIME_METRICS = {
    "parser.bulk.encode": "parser.bulk.encode_s",
    "crf.batch.build": "crf.batch.build_s",
    "crf.batch.potentials": "crf.batch.potentials_s",
    "crf.decode.viterbi": "crf.decode.viterbi_s",
    "parser.fields.assemble": "parser.fields.assemble_s",
    "parser.parse_many": "parser.parse_many_s",
    "resilience.gate": "resilience.gate_s",
    "consistency.audit": "consistency.audit_s",
    "survey.store.commit": "survey.store.commit_s",
    "whois.featurize": "whois.featurize_s",
    "crf.train.objective": "crf.train.objective_s",
    "pipeline.retrain": "crf.train.optimizer_s",
}

#: the warm bulk split the ROADMAP's cProfile table gives (share of a
#: warm ``parse_many``), for the cross-check in the report
ROADMAP_WARM_SPLIT = {
    "parser.bulk.encode": 0.45,
    "crf.batch.build": 0.19,
    "crf.batch.potentials": 0.12,
    "parser.fields.assemble": 0.11,
    "crf.decode.viterbi": 0.05,
}


def _batch_shape(span, _args, _kwargs, batch) -> None:
    span.attrs["tokens"] = batch.n_tokens
    span.attrs["cells"] = batch.n_records * batch.t_max


def install(tracer: tracing.Tracer, *, on_submit=None, on_batch=None,
            on_parse_text=None) -> None:
    """Wrap every layer boundary; the hooks serve the request/batch
    links of the serving workload."""
    wrap = tracer.wrap
    wrap(LineEncoder, "encode_record", "parser.bulk.encode")
    wrap(LineEncoder, "encode_lines", "parser.bulk.encode")
    wrap(EncodedBatch, "from_encoded", "crf.batch.build", on_call=_batch_shape)
    wrap(EncodedBatch, "potentials", "crf.batch.potentials")
    wrap(repro.crf.model, "batch_viterbi", "crf.decode.viterbi")
    wrap(DomainSpec, "assemble_record", "parser.fields.assemble")
    wrap(WhoisParser, "parse_many", "parser.parse_many", on_enter=on_batch)
    wrap(RecordGate, "inspect", "resilience.gate")
    wrap(repro.consistency.audit, "audit_parsed", "consistency.audit")
    for method in ("add_parsed", "add_quarantined", "flush"):
        wrap(SurveyDatabase, method, "survey.store.commit")
    wrap(WhoisFeaturizer, "featurize_lines", "whois.featurize")
    wrap(repro.crf.train, "batch_nll_grad", "crf.train.objective")
    wrap(WarmStartRetrainer, "retrain", "pipeline.retrain")
    wrap(MicroBatcher, "submit", "serve.batcher.submit", on_enter=on_submit)
    wrap(ServeApp, "parse_text", "serve.app.parse_text", on_call=on_parse_text)


def _under(span, match) -> bool:
    """Whether ``span`` or one of its ancestors satisfies ``match``."""
    while span is not None:
        if match(span):
            return True
        span = span.parent
    return False


def _named(name: str):
    return lambda span: span.name == name


def layer_metrics(tracer: tracing.Tracer, *, thread: int, wall: float) -> dict:
    """Per-layer figures of one traced window.

    Self times come from the spans on ``thread`` (the thread that runs
    the path's work); spans of the benchmark itself (``bench.*``) are
    not a layer, so their self time joins the unattributed remainder.
    """
    spans = tracer.spans
    acct = tracing.account(spans, wall, thread)
    if abs(acct["error"]) > 0.01 * wall:
        raise AssertionError(
            f"self times and remainder miss the traced wall time by "
            f"{acct['error']:.4f} s of {wall:.4f} s"
        )
    out = {metric: 0.0 for metric in SELF_TIME_METRICS.values()}
    bench_self = 0.0
    for name, seconds in acct["self"].items():
        if name in SELF_TIME_METRICS:
            out[SELF_TIME_METRICS[name]] += seconds
        else:
            bench_self += seconds
    # survey.parse_s is parse_many's self time inside a survey ingest.
    selfs = tracing.self_times([s for s in spans if s.thread == thread])
    out["survey.parse_s"] = sum(
        seconds for span, seconds in selfs.items()
        if span.name == "parser.parse_many"
        and _under(span, _named("bench.ingest"))
    )
    out["parser.parse_many_s"] -= out["survey.parse_s"]
    out["trace.wall_s"] = wall
    out["trace.unattributed_s"] = acct["unattributed"] + bench_self

    builds = [s for s in spans if s.name == "crf.batch.build"]
    tokens = sum(s.attrs.get("tokens", 0) for s in builds)
    cells = sum(s.attrs.get("cells", 0) for s in builds)
    out["parse.tokens"] = tokens
    out["parse.chunks"] = len(builds)
    out["crf.batch.pad_frac"] = (cells - tokens) / tokens if tokens else 0.0

    retrains = [s for s in spans if s.name == "pipeline.retrain"]
    out["crf.train.objective_evals"] = (
        sum(1 for s in spans if s.name == "crf.train.objective"
            and _under(s, _named("pipeline.retrain"))
            and s.trace == retrains[0].trace)
        if retrains else 0
    )
    gates = [s for s in spans if s.name == "resilience.gate"]
    out["resilience.gate_calls"] = len(gates)

    # Warm bulk split against the ROADMAP cProfile table.
    def warm_pass(span) -> bool:
        return span.name == "bench.pass" and span.attrs["phase"] == "warm"

    warm_wall = sum(s.duration for s in spans if warm_pass(s))
    for name in ROADMAP_WARM_SPLIT:
        seconds = sum(
            selfs.get(s, 0.0) for s in spans
            if s.name == name and _under(s, warm_pass)
        )
        short = name.rsplit(".", 1)[-1]
        out[f"parser.bulk.warm_share.{short}"] = (
            seconds / warm_wall if warm_wall else 0.0
        )
    return out
