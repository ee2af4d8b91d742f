"""hsroots benchmark: four workloads, end-to-end metrics, and a traced run.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

--trace 0 times the untraced workload and reports the end-to-end metrics,
of which setup_s, wall_cal_s (wall time calibrated against the machine's
speed, see calibration.py) and peak_rss_mb are bounded in BENCHMARK.json;
--trace 1 runs it once untraced and once with spans around every call into
a layer (ehrhart, roots, stability, campaign, bounds) and reports the
per-layer metrics.  Each run prints a table of its metrics with unit and
sample count, then, as its last line, one JSON object with the keys
correct, attempted, failed and metrics.  `--workload all` runs every
workload in turn, each in its own process.

--seed is the solver seed of the first pass (see workloads.SEED_STEP).
--seconds sets how many passes a run makes: seconds / the workload's
nominal pass time, rounded, at least one.  Every instance goes through the
correctness gate of reference.py; an instance that fails it, raises, or is
still running at the time limit counts as failed.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

STARTED = time.perf_counter()

try:
    import program
    import reference
    import workloads
    from tracing import Tracer
except ImportError as exc:
    sys.exit(f"perfbench: cannot import the program: {exc}")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

# Every pass of a run must end this long after the run started, so that the
# process exits within three minutes whatever the program does.
TIME_LIMIT_S = 150.0
SETUP_REPEATS = 7

# The end-to-end metrics bounded in BENCHMARK.json.
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_cal_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "ehrhart.build_s": "s",
    "roots.find_s": "s",
    "roots.sweeps_mean": "sweeps",
    "roots.sweeps_max": "sweeps",
    "roots.exhausted": "count",
    "stability.routh_right_s": "s",
    "stability.routh_left_s": "s",
    "stability.shift_s": "s",
    "stability.coeff_bits_max": "bits",
    "campaign.write_s": "s",
    "campaign.self_s": "s",
    "bounds.rouche_s": "s",
    "bounds.monotone_s": "s",
    "bounds.ratio_evals": "count",
    "bounds.nudged": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}
# Span names whose self time makes up each per-layer time metric.
LAYER_SPANS = {
    "ehrhart.build_s": ("ehrhart.build",),
    "roots.find_s": ("roots.find",),
    "stability.routh_right_s": ("stability.routh_right",),
    "stability.routh_left_s": ("stability.routh_left",),
    "stability.shift_s": ("stability.shift",),
    "campaign.write_s": ("campaign.write",),
    "campaign.self_s": ("campaign.run", "campaign.instance"),
    "bounds.rouche_s": ("bounds.rouche",),
    "bounds.monotone_s": ("bounds.monotone",),
}


def environment() -> str:
    import mpmath
    import numpy

    return (
        f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
        f"numpy={numpy.__version__} mpmath={mpmath.__version__} "
        f"mpmath.backend={mpmath.libmp.BACKEND}"
    )


def measure_setup(src: Path) -> list:
    """Seconds from starting an interpreter to hsroots imported, per attempt."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import hsroots; print('ok', flush=True)"
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", code, str(src)], stdout=subprocess.PIPE, cwd=ROOT
        ) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.communicate()
        if line.strip() != b"ok":
            raise RuntimeError("importing hsroots in a fresh interpreter failed")
    return times


def quantile(values, q: int) -> float:
    """The q-th percentile, as statistics.quantiles gives it."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def solver_seeds(workload, seed: int, seconds: int) -> list:
    passes = max(1, round(seconds / workload.nominal_pass_s))
    return [seed + workloads.SEED_STEP * j for j in range(passes)]


def measure(workload, args, ref, work: Path):
    """The run's passes and, for a traced run, the tracer."""
    deadline = time.monotonic() + TIME_LIMIT_S - (time.perf_counter() - STARTED)
    if args.trace:
        tracer = Tracer()
        plain, traced = workload.traced_run(args.seed, work, ref, tracer, deadline)
        return [plain, traced], tracer
    outcomes = []
    instances = workload.instances()
    for index, seed in enumerate(solver_seeds(workload, args.seed, args.seconds)):
        workloads.clear_program_caches()
        out = work / f"pass{index}"
        out.mkdir()
        run = lambda seed=seed, out=out: workload.run_pass(seed, out, ref)
        outcomes.append(workloads.guarded(run, seed, instances, deadline))
    return outcomes, None


def end_to_end(workload, outcomes, setups, attempted: int, failed: int) -> dict:
    """Every end-to-end metric as (value, unit, samples, note).

    Only the END_TO_END_UNITS names go into the result line and are bounded
    in BENCHMARK.json; the rest are printed for the reader.
    """
    latencies = [ms for o in outcomes for ms in o.latency_ms.values()]
    p90 = quantile(latencies, 90) if latencies else 0.0
    beyond = sum(ms > p90 for ms in latencies)
    seeds = ", ".join(str(o.solver_seed) for o in outcomes)
    metrics = {
        "setup_s": (
            statistics.median(setups), "s", len(setups),
            "median over fresh interpreters importing hsroots",
        ),
        "wall_cal_s": (
            statistics.median(o.calibrated_s or 0.0 for o in outcomes), "s", len(outcomes),
            f"median over passes at solver seeds {seeds}, calibrated (calibration.py)",
        ),
        "wall_s": (
            statistics.median(o.wall_s for o in outcomes), "s", len(outcomes),
            "not bounded: raw, swings with the machine's speed",
        ),
        "instance_ms_p50": (
            statistics.median(latencies) if latencies else 0.0, "ms", len(latencies),
            "not bounded: few samples on diagonal and tall_certify",
        ),
        "instance_ms_p90": (
            p90, "ms", len(latencies),
            f"not bounded: {beyond} samples beyond" + ("" if beyond >= 10 else ", fewer than ten"),
        ),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1,
            "whole benchmark process",
        ),
        "fail_ratio": (
            failed / attempted, "ratio", attempted,
            f"not bounded: {failed} of {attempted} instances failed the gate",
        ),
    }
    if isinstance(workload, workloads.CampaignWorkload):
        metrics["residual_max"] = (
            max(o.residual_max for o in outcomes), "rel", len(latencies),
            "not bounded: largest root residual; the gate checks each against the tolerance",
        )
    return metrics


def per_layer(plain, traced, tracer) -> dict:
    """Each per-layer metric as (value, samples): spans for times, instances
    for counters."""
    self_times, counts = tracer.self_times(), tracer.counts()
    instances = len(traced.latency_ms)
    metrics = {name: (0, instances) for name in PER_LAYER_UNITS}
    for name, spans in LAYER_SPANS.items():
        metrics[name] = (
            sum(self_times.get(s, 0.0) for s in spans),
            sum(counts.get(s, 0) for s in spans),
        )
    metrics.update((name, (value, instances)) for name, value in traced.layers.items())
    metrics["trace.wall_s"] = (traced.wall_s, 1)
    metrics["trace.overhead_s"] = (traced.wall_s - plain.wall_s, 1)
    return metrics


def report_table(rows):
    print(f"{'metric':26} {'value':>14} {'unit':7} {'samples':>7}  note")
    for name, value, unit, samples, note in rows:
        print(f"{name:26} {value:>14.6g} {unit:7} {samples:>7}  {note}")


def identity_note(outcomes) -> str:
    words = {True: "identical", False: "differ", None: "no reference for this seed"}
    return ", ".join(
        f"seed {o.solver_seed}: {'no output' if o.report is None else words[o.identical]}"
        for o in outcomes
    )


def run_one(args) -> int:
    workload = workloads.WORKLOADS[args.workload]
    setups = measure_setup(program.SRC)
    ref = reference.load(workload.name)
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        outcomes, tracer = measure(workload, args, ref, Path(tmp))

    attempted = sum(len(o.instances) for o in outcomes)
    failed = sum(len(o.failures) for o in outcomes)
    print(f"# {workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# environment: {environment()}")
    print(f"# why: {workload.why}")
    for o in outcomes:
        for key, reason in sorted(o.failures.items()):
            print(f"# FAILED seed {o.solver_seed} instance {key}: {reason}")

    if args.trace:
        plain, traced = outcomes
        measured = per_layer(plain, traced, tracer)
        values = {name: value for name, (value, _) in measured.items()}
        spans_path = OUT_DIR / f"spans_{workload.name}_seed{args.seed}.jsonl"
        tracer.write_jsonl(spans_path)
        units = PER_LAYER_UNITS
        rows = []
        for name, (value, samples) in measured.items():
            share = ""
            if units[name] == "s" and traced.wall_s > 0:
                share = f"{value / traced.wall_s:.1%} of traced wall"
            rows.append((name, value, units[name], samples, share))
        report_table(rows)
        print(f"# spans: {spans_path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    else:
        measured = end_to_end(workload, outcomes, setups, attempted, failed)
        values = {name: value for name, (value, *_) in measured.items()}
        units = END_TO_END_UNITS
        report_table([(name, *row) for name, row in measured.items()])
        if isinstance(workload, workloads.CampaignWorkload):
            print(f"# report.csv and roots.csv against the reference bytes: {identity_note(outcomes)}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workloads.WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("\n".join(lines), flush=True)
            status = 1
            merged["correct"] = False
            continue
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged), flush=True)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
