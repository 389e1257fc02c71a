"""dtslearn benchmark: seeded workloads, end-to-end metrics, per-layer traces.

Run from the root of a checkout (nothing needs installing; the library is
imported from ``src/``):

    python3 perfbench/run.py --workload learn-arm --seed 1 --seconds 24 --trace 0

One process runs one workload on one thread, as a closed loop: each task
starts when the previous one returns. Passes over the workload's tasks
repeat while another pass still fits in ``--seconds`` (there is always at
least one). Every task's output is checked after its pass, outside the
timing. Task times are scaled to a reference CPU speed measured by the
probe in ``speed.py``; the summary line gives the raw time and the factor.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``; no
wrapper is installed. ``--trace 1`` reports the per-layer metrics: it first
runs untraced passes for half the time, then the same number of passes with
every public dtslearn function wrapped (see ``tracer.py``), and writes the
spans to ``perfbench/out/`` (the last traced run of each workload). ``--workload all`` runs each workload in a
process of its own and prints one table.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any

import numpy as np

from speed import SpeedProbe, slowdown
from tracer import LAYERS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SAMPLES = 3
SPEED_INTERVAL_S = 0.5


def _import_library():
    """Import dtslearn from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import dtslearn
    if Path(dtslearn.__file__).resolve().parent != src / "dtslearn":
        raise ImportError(f"dtslearn was imported from {dtslearn.__file__}, not from {src}")


@dataclass
class Record:
    name: str
    raw_s: float  # as timed
    scaled_s: float  # at the reference speed
    failure: str | None = None
    learned: Any = None  # (LearnReport, oracle tally) of a learn task


@dataclass
class Pass:
    raw_s: float
    scaled_s: float
    records: list[Record]


def run_pass(workload, inputs, tracer=None) -> Pass:
    """Time one pass over the tasks, then gate every output (untimed, untraced).

    A speed probe samples the slowdown throughout; each task's time, less
    the probes that ran inside it, is divided by the slowdown around it.
    """
    tasks = workload.tasks(inputs)
    timed = []
    with SpeedProbe(SPEED_INTERVAL_S) as probe:
        if tracer is not None:
            tracer.install()
        try:
            for task in tasks:
                spent, t0 = probe.spent, perf_counter()
                try:
                    with tracer.span(f"task.{task.name}") if tracer else nullcontext():
                        out, error = task.run(), None
                except Exception as exc:  # a failed task is counted, never fatal
                    out, error = None, exc
                t1 = perf_counter()
                timed.append((task, t0, t1, t1 - t0 - (probe.spent - spent), out, error))
        finally:
            if tracer is not None:
                tracer.uninstall()
    records = [_gate(workload, task, raw, raw / probe.slowdown_between(t0, t1), out, error)
               for task, t0, t1, raw, out, error in timed]
    return Pass(sum(r.raw_s for r in records), sum(r.scaled_s for r in records), records)


def _gate(workload, task, raw, scaled, out, error) -> Record:
    from workloads import Learned
    record = Record(task.name, raw, scaled)
    if isinstance(out, Learned):
        record.learned = (out.report, out.oracle.tally())
    if error is not None:
        record.failure = f"raised {type(error).__name__}: {error}"
    elif raw > workload.budget_s:
        record.failure = f"took {raw:.1f}s, over the {workload.budget_s:.0f}s budget"
    else:
        try:
            task.check(out)
        except Exception as exc:
            record.failure = f"{type(exc).__name__}: {exc}"
    return record


def run_passes(workload, inputs, seconds: float, count: int | None = None,
               tracer=None) -> list[Pass]:
    """``count`` passes, or as many as fit in ``seconds`` of measured time (at least one)."""
    passes: list[Pass] = []
    while True:
        passes.append(run_pass(workload, inputs, tracer))
        spent = sum(p.raw_s for p in passes)
        if count is not None and len(passes) == count:
            return passes
        if count is None and spent + passes[-1].raw_s > seconds:
            return passes


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Time from starting a fresh interpreter to the end of set-up, several times.

    Each sample is scaled by the slowdown probed just before and just after it.
    """
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = slowdown()
        t0 = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                raw = perf_counter() - t0
                proc.wait(timeout=120)
                samples.append(raw / ((before + slowdown()) / 2))
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up of {workload} failed (exit {proc.returncode})")
    return samples


def _quantile(values, q: int) -> float:
    """The q-th percentile (interpolated), or 0 with fewer than two values."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else 0.0


def task_metrics(passes: list[Pass]) -> dict[str, float]:
    """What the task records show without tracing: oracle counts, learn latency, growth."""
    n = len(passes)
    records = [r for p in passes for r in p.records]
    learned = [r for r in records if r.learned]
    times: dict[str, list[float]] = {}
    for r in records:
        times.setdefault(r.name, []).append(r.scaled_s)

    def ratio(a: str, b: str) -> float:
        return statistics.median(times[a]) / statistics.median(times[b]) if a in times and b in times else 0.0

    learn_s = [r.scaled_s for r in learned]
    line_ratio = ratio("msr.line1600", "msr.line800")
    return {
        "learner.oracle.resets": sum(r.learned[0].oracle_resets for r in learned) / n,
        "learner.oracle.steps": sum(r.learned[0].oracle_steps for r in learned) / n,
        "learner.learn.p50_s": _quantile(learn_s, 50),
        "learner.learn.p90_s": _quantile(learn_s, 90),
        "learner.learn.samples": float(len(learn_s)),
        "learner.arm47_over_arm34": ratio("arm47", "arm34"),
        "partitions.msr.line_growth": math.log2(line_ratio) if line_ratio else 0.0,
    }


def layer_metrics(setup_trace, pass_trace, ref: list[Pass], traced: list[Pass]) -> dict[str, float]:
    """Per-layer numbers: the traced set-up once plus the mean of the traced passes."""
    from workloads import ACCEPTANCE_CHECKS
    n = len(traced)
    out = setup_trace.totals()
    for key, value in pass_trace.totals().items():
        out[key] = out.get(key, 0.0) + value / n
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in out.items()
                                     if k.startswith(f"{layer}.") and k.endswith(".self_s"))

    # make_random draws candidates until one passes its tests; the first test runs on each
    candidates = 0.0
    for trace, weight in ((setup_trace, 1.0), (pass_trace, 1.0 / n)):
        md, sc = (trace.children_per_parent("envs.make_random", f"core.{test}")
                  for test in ("is_minimally_distinguishing", "is_strongly_connected"))
        candidates += weight * float(np.maximum(md, sc).sum())

    traced_wall = statistics.median(p.scaled_s for p in traced)
    # spans are raw times and include the speed probes that fired inside them
    task_span_s = sum(v for k, v in out.items() if k.startswith("task.") and k.endswith(".s"))
    ref_mean = statistics.mean(p.scaled_s for p in ref)
    overhead = statistics.mean(p.scaled_s for p in traced) - ref_mean
    oracles = [r.learned[1] for p in traced for r in p.records if r.learned]
    step_calls = sum(o["step_calls"] for o in oracles)
    attempts = [a for p in traced for r in p.records if r.learned for a in r.learned[0].attempts]
    out.update({
        "envs.make_random.candidates": candidates,
        "envs.make_random.accept_ratio":
            out["envs.make_random.calls"] / candidates if candidates else 0.0,
        "learner.frontier_s": out["learner.learn.self_s"],
        "learner.frontier_share": out["learner.learn.self_s"] / task_span_s,
        "learner.bounded_indistinguishability.share":
            out["learner.bounded_indistinguishability.s"] / task_span_s,
        "learner.oracle.start_calls": sum(o["start_calls"] for o in oracles) / n,
        "learner.oracle.step_calls": step_calls / n,
        "learner.oracle.step_s": sum(o["step_s"] for o in oracles) / n,
        "learner.oracle.sessions_per_step":
            sum(o["sessions_stepped"] for o in oracles) / step_calls if step_calls else 0.0,
        "learner.attempts": len(attempts) / n,
        "learner.attempts_ok_ratio": sum(a.ok for a in attempts) / len(attempts) if attempts else 0.0,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": overhead,
        "trace.overhead_ratio": overhead / ref_mean,
        "trace.spans": len(pass_trace.start) / n,
    })
    for i in ACCEPTANCE_CHECKS:
        out[f"acceptance.check{i}_s"] = sum(
            r.scaled_s for p in traced for r in p.records if r.name.startswith(f"check{i}.")) / n
    out.update(task_metrics(ref))
    return out


def _select(spec_metrics, values: dict[str, float]) -> dict[str, dict]:
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics named in BENCHMARK.json were not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics}


def run_one(args, spec) -> int:
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        workload.setup(args.seed)
        print("ready", flush=True)
        return 0

    if args.trace:
        setup_trace, pass_trace = Tracer(), Tracer()
        setup_trace.install()
        try:
            with setup_trace.span("setup"):
                inputs = workload.setup(args.seed)
        finally:
            setup_trace.uninstall()
        ref = run_passes(workload, inputs, args.seconds / 2)
        traced = run_passes(workload, inputs, 0, count=len(ref), tracer=pass_trace)
        passes = ref + traced
        OUT.mkdir(exist_ok=True)
        for label, trace in (("setup", setup_trace), ("passes", pass_trace)):
            trace.save(OUT / f"{args.workload}-{label}-spans.npz")
        values = layer_metrics(setup_trace, pass_trace, ref, traced)
        metrics = _select(spec["per_layer"], values)
    else:
        inputs = workload.setup(args.seed)
        setup_s = statistics.median(setup_seconds(args.workload, args.seed))
        passes = run_passes(workload, inputs, args.seconds)
        values = {
            "wall_s": statistics.median(p.scaled_s for p in passes),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = _select(spec["end_to_end"], values)

    records = [r for p in passes for r in p.records]
    failures = [r for r in records if r.failure]
    for r in failures[:10]:
        print(f"FAILED {r.name}: {r.failure}", file=sys.stderr)
    raw, scaled = sum(p.raw_s for p in passes), sum(p.scaled_s for p in passes)
    print(f"{args.workload} seed {args.seed}: {len(passes)} pass(es), "
          f"{len(records)} tasks, {len(failures)} failed "
          f"(fail_ratio {len(failures) / len(records):.4g}); "
          f"timed {raw:.2f}s at {raw / scaled:.3f}x the reference time")
    for name, metric in metrics.items():
        print(f"  {name:45s} {metric['value']:14.6g} {metric['unit']}")
    if not args.trace:  # the numbers the task records give for free, where they apply
        for name, value in task_metrics(passes).items():
            if value:
                print(f"  {name:45s} {value:14.6g}")
    print(json.dumps({"correct": not failures, "attempted": len(records),
                      "failed": len(failures), "metrics": metrics}))
    return 0


def run_all(args, spec) -> int:
    """Each workload in its own process (so peak memory is its own), one table."""
    from workloads import WORKLOADS
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        if done.returncode != 0:
            print(f"{name}: exit {done.returncode}", file=sys.stderr)
            return 2
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(f"{'metric':45s} {'unit':6s} " + " ".join(f"{w:>14s}" for w in results))
    for metric in spec["per_layer" if args.trace else "end_to_end"]:
        print(f"{metric['name']:45s} {metric['unit']:6s} " + " ".join(
            f"{r['metrics'][metric['name']]['value']:14.6g}" for r in results.values()))
    print(f"{'fail_ratio':45s} {'':6s} " + " ".join(
        f"{r['failed'] / r['attempted']:14.4g}" for r in results.values()))
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("learn-arm", "learn-random", "analyze-large", "acceptance", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        _import_library()
    except (OSError, ValueError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
