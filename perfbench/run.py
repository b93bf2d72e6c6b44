#!/usr/bin/env python3
"""One command for the benchmark of the four survey paths.

    python3 perfbench/run.py --workload bulk_parse --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Set-up (generate the training corpus,
train the deployed parser with the ``odd`` family held out, generate the
workload's inputs from ``--seed``) runs three times and ``setup_s`` is
its median.  Then one workload measures for ``--seconds``.  Every timed
figure, ``setup_s`` too, is in reference seconds: wall time divided by
the program's slowdown over the run, estimated from a speed probe
(``harness.SpeedProbe``); the report prints the wall-time figures next
to them.  ``peak_rss_mb`` is the peak RSS of the measurement alone (the
high-water mark is reset once set-up is done).

- ``--trace 0`` reports every end-to-end metric named in
  ``BENCHMARK.json``;
- ``--trace 1`` measures half the time untraced and half traced, and
  reports every per-layer metric (self time per layer, counts, ratios,
  input properties and the tracing overhead); the spans are written to
  ``.perfbench_out/``.

Correctness checks run after the measurement.  The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; a failed check prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS/OpenMP pools before numpy loads, the same for every run.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
# Run on one CPU.  The program's Python code runs one thread at a time
# anyway (the interpreter lock), and on a VM a hand-off between threads
# on two vCPUs waits for the hypervisor to wake the idle one, which made
# the light-load serving latency swing between runs.
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
# Pin string hashing too: set and dict iteration orders feed the feature
# index, so an unpinned hash seed trains a slightly different model in
# every process.  The interpreter reads it only at start-up, hence the
# re-exec (same process id, nothing left running).
if os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench_out"
#: set-ups per run; ``setup_s`` is their median
SETUP_REPS = 3


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _metric_specs() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        key: {m["name"]: m["unit"] for m in spec[key]}
        for key in ("end_to_end", "per_layer")
    }


def main(argv=None) -> int:
    """Run one workload; see the module docstring."""
    args = _parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import harness
    import layers
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    specs = _metric_specs()
    WORKDIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]()
    extra_setup = {"workdir": WORKDIR} if args.workload == "survey_ingest" else {}

    probe = harness.SpeedProbe()
    setup_times = []
    for _ in range(1 if args.trace else SETUP_REPS):
        probe.sample()
        started = perf_counter()
        deployed = harness.train_deployed()
        workload.setup(deployed, args.seed, **extra_setup)
        setup_times.append(perf_counter() - started)

    # Move the set-up's objects (inputs, corpora, the model) out of the
    # collector's generations: the program's garbage collections then
    # scan what the program allocates, not the benchmark's input pool.
    gc.collect()
    gc.freeze()
    rss_at_start = harness.reset_peak_rss()
    if not args.trace:
        m = workload.measure(args.seconds, probe)
        peak_rss = harness.peak_rss_mb()
        workload.finish(m)
        values = {
            "peak_rss_mb": peak_rss,
            "rate_rps": m.rate_rps,
            "latency_ms": m.latency_ms,
        }
        m.notes.append(
            f"peak RSS {peak_rss:.1f} MiB during the measurement, "
            f"{rss_at_start:.1f} MiB of it resident when it started "
            f"(interpreter, program, deployed model, inputs); the "
            f"measured path's own share "
            f"{1.0 - rss_at_start / peak_rss:.1%}"
        )
        m.notes.append(
            f"wall time: rate_rps {m.wall_rate_rps:.6g}, latency_ms "
            f"{m.wall_latency_ms:.6g}, setup_s "
            f"{harness.median(setup_times):.6g}; program slowdown over the "
            f"measurement {m.slowdown:.4f}; reported: rate_rps "
            f"{m.rate_rps:.6g}, latency_ms {m.latency_ms:.6g}"
        )
        kind = "end_to_end"
    else:
        plain = workload.measure(args.seconds / 2, probe)
        tracer = tracing.Tracer()
        hooks = (
            workload.trace_hooks(tracer)
            if hasattr(workload, "trace_hooks") else {}
        )
        layers.install(tracer, **hooks)
        try:
            started = perf_counter()
            m = workload.measure(args.seconds / 2, probe, tracer)
            wall = perf_counter() - started
        finally:
            tracer.uninstall()
        workload.finish(m)
        thread = (
            workload.work_thread(tracer)
            if hasattr(workload, "work_thread") else threading.get_ident()
        )
        values = layers.layer_metrics(tracer, thread=thread, wall=wall)
        values.update(m.extras)
        values["quality.line_error"] = m.line_error
        values["bench.machine_slowdown"] = probe.slowdown()
        values["trace.overhead_frac"] = plain.rate_rps / m.rate_rps - 1.0
        if values["parser.bulk.warm_share.encode"]:
            split = []
            for name, share in layers.ROADMAP_WARM_SPLIT.items():
                short = name.rsplit(".", 1)[-1]
                traced = values[f"parser.bulk.warm_share.{short}"]
                split.append(f"{short} {traced:.0%} ({share:.0%})")
            m.notes.append(
                "warm parse_many split (ROADMAP cProfile): " + ", ".join(split)
            )
        tracer.dump(WORKDIR / f"trace-{args.workload}-{args.seed}.jsonl.gz")
        kind = "per_layer"

    # The set-ups ran just before the measurement, in the same state of
    # the machine; the run's probes together measure that state best.
    setup_s = harness.median(setup_times) / probe.slowdown()
    if not args.trace:
        values["setup_s"] = setup_s
    problems = workload.check(m)
    busy = [
        other for other, own in zip(probe.foreign, probe.samples)
        if other > probe.FOREIGN_CPU_LIMIT * own
    ]
    if busy:
        problems.append(
            f"other threads used CPU during {len(busy)} of "
            f"{len(probe.samples)} speed probes (up to "
            f"{max(busy) * 1000:.2f} ms): work left running would be "
            f"divided out of the program's own figures"
        )
    if not m.line_error <= harness.LINE_ERROR_CEILING:
        problems.append(
            f"line error {m.line_error:.4f} above the ceiling "
            f"{harness.LINE_ERROR_CEILING}"
        )
    env = harness.environment(ROOT)
    print(f"workload {args.workload} seed {args.seed} "
          f"trace {args.trace}: {json.dumps(env)}")
    slowdowns = [x / probe.REF_S for x in probe.samples]
    print(f"setup {setup_s:.3f} s (median of {len(setup_times)}, "
          f"reference seconds); probe slowdown median "
          f"{harness.median(slowdowns):.3f}, range {min(slowdowns):.3f}-"
          f"{max(slowdowns):.3f} (n={len(slowdowns)} probes), program "
          f"slowdown {probe.slowdown():.3f}")
    for note in m.notes:
        print(note)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    metrics = {}
    for name, unit in specs[kind].items():
        if kind == "end_to_end" and name not in values:
            raise KeyError(f"end-to-end metric {name} was not measured")
        value = float(values.get(name, 0.0))
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<42} {value:>14.6g} {unit}")
    unreported = sorted(set(values) - set(specs[kind]))
    if unreported:
        raise KeyError(f"measured but not declared: {unreported}")
    print(json.dumps({
        "correct": not problems,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
