"""Benchmark of the treexact command line, end to end and layer by layer.

Run from the root of a checkout (the program is imported from ./src):

    python3 bench/run.py --workload realizable --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

Workloads are listed in gen.WORKLOADS and, with the reason for each, in
BENCHMARK.json. For one workload the benchmark writes every input file from
the seed, starts one worker process that calls `treexact.cli.main`
in-process on one input at a time for --seconds seconds of calls, judges
every output against the generated case (verify.py), and times the import of
`treexact.cli` in fresh interpreters (setup_s). With --trace 1 the worker
gets half the time, and a second worker replays the same inputs under spans
for the per-layer metrics. Times are in reference seconds (speed.py); the
summary shows the wall times beside them.

Self-tests: python3 -m unittest discover -s bench -p 'test_*.py'

Every metric is printed with its unit; the last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"} holding the
metrics every workload has (--trace 0) or the per-layer metrics (--trace 1).
Exit code 2 means the checkout has no program to measure; 1 means a worker
or the import failed. A wrong output is not an error: it is counted in
`failed` and `error_rate`.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gen
import reference
import spans
import speed
import verify

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"
DEADLINE_S = 170  # a run must end within 180 s
SETUP_RUNS = 11
POOL_PER_SECOND = 20  # inputs written per second of budget; no input repeats
COUNT_CASES = 2  # cases run again while counting compares
TAIL_BEYOND = 10  # samples above the reported tail value

# Metrics of the untraced run. END_TO_END is in the result line of every
# workload and has bounds in BENCHMARK.json. The tails are printed but not
# bounded: on a shared host the ten slowest calls of a run are mostly the
# host's stalls (on a 2-vCPU Xeon VM, Python 3.11, tails spread 10-24%
# between ten runs against 3-8% for the medians). The other per-command
# metrics exist only on the workloads that run the command, and error_rate
# is `failed` / `attempted`.
END_TO_END = {
    "check_p50_s": "s",
    "reconstruct_p50_s": "s",
    "matrices_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SUMMARY_ONLY = {
    "check_tail_s": "s",
    "reconstruct_tail_s": "s",
    "weights_p50_s": "s",
    "weights_tail_s": "s",
    "oracle_p50_s": "s",
    "oracle_tail_s": "s",
    "error_rate": "ratio",
}
PER_LAYER = {
    **{f"{name}.self_s": "s" for _, _, name in spans.SPANS},
    "cli.stdout_bytes": "bytes",
    "core.comparison_view.scale_bits": "bits",
    "numeric.compares": "count",
    "conditions.witnesses": "count",
    "reconstruct.find_pendant.calls": "count",
    "reconstruct.peel_completion": "ratio",
    "oracle.realize_on_topology.calls": "count",
    "oracle.hit_ratio": "ratio",
    "conditions.four_point_check.n_exp": "exponent",
    "conditions.condition_i_check.n_exp": "exponent",
    "conditions.condition_ii_check.n_exp": "exponent",
    "reconstruct.find_pendant.n_exp": "exponent",
    "input.quad.all_three_equal": "ratio",
    "input.quad.two_equal_max": "ratio",
    "input.quad.violation": "ratio",
    "input.realizable_share": "ratio",
    "trace.overhead": "ratio",
}

# The probe module is imported after the timed import, so that the modules it
# pulls in are not counted as already loaded.
_IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import treexact.cli; t = time.perf_counter() - t; sys.path.insert(0, sys.argv[2]); "
    "import speed; print(t, speed.probe())"
)


class BenchError(Exception):
    """A run that cannot produce a result; exit code 1."""


def _child(argv, deadline: float) -> subprocess.CompletedProcess:
    try:
        done = subprocess.run(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{argv[1]} did not finish in time")
    if done.returncode != 0:
        raise BenchError(f"{argv[1]} exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return done


def setup_seconds(deadline: float) -> tuple[float, list[float]]:
    """Median wall time to import treexact.cli, each in a fresh interpreter
    started after the previous one ended, and the speed probes taken after
    each import. Interpreter start is not program code and is excluded; the
    first child compiles the bytecode cache and is not counted."""
    times, probes = [], []
    for run in range(SETUP_RUNS + 1):
        out = _child([sys.executable, "-c", _IMPORT_TIMER, str(SRC), str(HERE)], deadline).stdout
        if run:
            seconds, probe = map(float, out.split())
            times.append(seconds)
            probes.append(probe)
    return times, probes


def run_worker(job: dict, work: Path, deadline: float) -> dict:
    job_path, result_path = work / f"{job['mode']}-job.json", work / f"{job['mode']}-result.json"
    job_path.write_text(json.dumps(job))
    _child([sys.executable, str(HERE / "worker.py"), str(job_path), str(result_path)], deadline)
    return json.loads(result_path.read_text())


def tail(values):
    """(value, percentile, samples) at the highest percentile with at least
    TAIL_BEYOND samples above it; the maximum when there are too few."""
    xs = sorted(values)
    at = len(xs) - TAIL_BEYOND - 1 if len(xs) > TAIL_BEYOND else len(xs) - 1
    return xs[at], 100.0 * (at + 1) / len(xs), len(xs)


def _calls(checker: verify.Checker, result) -> tuple[int, list[str]]:
    """(calls attempted, reasons of failed calls) over every pass of a worker."""
    records = result["records"] + result["other"]
    return sum(len(r["calls"]) for r in records), checker.failures(records)


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    """One run; returns {"metrics", "notes", "attempted", "failures"}."""
    deadline = time.monotonic() + DEADLINE_S
    wl = gen.WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        pool = list(range(POOL_PER_SECOND * seconds))
        inputs, half_inputs = work / "in", work / "half"
        inputs.mkdir()
        gen.write_inputs(wl, seed, wl.n, pool + ["warmup"], str(inputs))
        base = {"src": str(SRC), "workload": name, "seed": seed, "dir": str(inputs)}
        timed = run_worker(
            {**base, "mode": "timed", "indices": pool, "budget_s": seconds / 2 if trace else seconds},
            work, deadline,
        )
        records = timed["records"]
        checker = verify.Checker(wl, seed)
        attempted, failures = _calls(checker, timed)
        notes = {}
        if not trace:
            metrics = _end_to_end(wl, records, notes)
            times, probes = setup_seconds(deadline)
            metrics["setup_s"] = statistics.median(_reference(times, probes))
            notes["setup_s"] = (
                f"{statistics.median(times):.4g} s wall, median of {len(times)}; "
                f"probe median {statistics.median(probes) * 1e3:.3g} ms"
            )
            metrics["peak_rss_mb"] = timed["peak_rss_mb"]
        else:
            used = pool[: len(records)]
            half_inputs.mkdir()
            gen.write_inputs(wl, seed, gen.half_n(wl.n), used, str(half_inputs))
            traced = run_worker(
                {**base, "mode": "traced", "indices": used, "half_dir": str(half_inputs),
                 "count_cases": COUNT_CASES},
                work, deadline,
            )
            more, more_failures = _calls(checker, traced)
            attempted, failures = attempted + more, failures + more_failures
            metrics = {**traced["layers"], **_input_shares(checker, used, wl.n)}
            metrics["trace.overhead"] = _reference_wall(traced["records"]) / _reference_wall(records) - 1
            notes["absent"] = traced["absent"]
            notes["traced cases"] = f"{len(used)} at n={wl.n}, again at n={gen.half_n(wl.n)}"
        return {"metrics": metrics, "notes": notes, "attempted": attempted, "failures": failures}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _input_shares(checker: verify.Checker, indices, n: int) -> dict:
    """Properties of the traced inputs, from the benchmark's own reference:
    quadruples by pair-sum pattern, realizable matrices, and the witnesses a
    correct check prints per matrix."""
    kinds = dict.fromkeys((reference.ALL_THREE_EQUAL, reference.TWO_EQUAL_MAX, reference.VIOLATION), 0)
    realizable = witnesses = 0
    for index in indices:
        report, quad_kinds = checker.report(n, index)
        realizable += report["realizable"]
        witnesses += len(report["witnesses"])
        for kind, count in quad_kinds.items():
            kinds[kind] += count
    shares = {f"input.quad.{kind}": count / sum(kinds.values()) for kind, count in kinds.items()}
    shares["input.realizable_share"] = realizable / len(indices)
    shares["conditions.witnesses"] = witnesses / len(indices)
    return shares


def _wall(records) -> float:
    return sum(sum(r["seconds"].values()) for r in records)


def _reference(seconds, probes) -> list[float]:
    return [s * f for s, f in zip(seconds, speed.factors(probes))]


def _reference_wall(records) -> float:
    return sum(_reference([sum(r["seconds"].values()) for r in records], [r["probe"] for r in records]))


def _end_to_end(wl: gen.Workload, records, notes: dict) -> dict:
    """Per-command median and tail, and throughput, in reference seconds."""
    probes = [r["probe"] for r in records]
    metrics = {}
    for command in wl.commands:
        xs = [r["seconds"][command] for r in records]
        ys = _reference(xs, probes)
        metrics[f"{command}_p50_s"] = statistics.median(ys)
        notes[f"{command}_p50_s"] = f"{statistics.median(xs):.4g} s wall"
        value, percentile, samples = tail(ys)
        metrics[f"{command}_tail_s"] = value
        notes[f"{command}_tail_s"] = f"{tail(xs)[0]:.4g} s wall; p{percentile:.1f} of {samples} samples"
    metrics["matrices_per_s"] = len(records) / _reference_wall(records)
    notes["matrices_per_s"] = (
        f"{len(records)} matrices in {_wall(records):.2f} s wall of calls; "
        f"probe median {statistics.median(r['probe'] for r in records) * 1e3:.3g} ms"
    )
    return metrics


def summary(name: str, run: dict, trace: bool) -> list[str]:
    units = PER_LAYER if trace else {**END_TO_END, **SUMMARY_ONLY}
    wl = gen.WORKLOADS[name]
    lines = [f"# {name}: n={wl.n} --mode {wl.mode}, commands {' '.join(wl.commands)}"]
    for metric, unit in units.items():
        if metric in run["metrics"]:
            note = run["notes"].get(metric)
            lines.append(
                f"{metric:40s} {run['metrics'][metric]:.6g} {unit}" + (f"  ({note})" if note else "")
            )
    failed, attempted = len(run["failures"]), run["attempted"]
    lines.append(
        f"{'error_rate':40s} {failed / attempted:.6g} {SUMMARY_ONLY['error_rate']}"
        f"  ({failed} of {attempted} calls failed)"
    )
    for key in ("traced cases", "absent"):
        if key in run["notes"]:
            lines.append(f"# {key}: {run['notes'][key]}")
    return lines


def result_line(run: dict, trace: bool) -> dict:
    units = PER_LAYER if trace else END_TO_END
    failed = len(run["failures"])
    return {
        "correct": failed == 0,
        "attempted": run["attempted"],
        "failed": failed,
        "metrics": {m: {"value": run["metrics"].get(m, 0.0), "unit": u} for m, u in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*gen.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "treexact" / "cli.py").is_file():
        print(f"error: no program to measure at {SRC / 'treexact'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    names = list(gen.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            run = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        for failure in run["failures"][:5]:
            print(f"failed: {failure}", file=sys.stderr)
        print("\n".join(summary(name, run, bool(args.trace))), flush=True)
        results[name] = result_line(run, bool(args.trace))
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
