"""Benchmark worker: one fresh interpreter per phase of a workload.

It imports `treexact.cli` from the checkout and calls `main(argv)` in-process
on input files written before it started, one call at a time (a closed loop
with one client). Each call is timed with stdout and stderr captured. The
outputs are shipped back (see verify.keep) and judged by run.py afterwards.

    python3 bench/worker.py JOB.json RESULT.json

JOB holds src, workload, seed, dir (the input files), indices (the cases to
run, in order) and mode. "timed" stops once the calls have taken budget_s
seconds. "traced" runs exactly the given cases under spans, then the same
indices at the smaller size from half_dir, then count_cases of them while
counting compares.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import sys
import time

import gen
import spans
import speed
import verify

SCALED = (
    "conditions.four_point_check", "conditions.condition_i_check",
    "conditions.condition_ii_check", "reconstruct.find_pendant",
)


def call(main, argv):
    """Run main(argv) with captured output; return (seconds, exit, stdout, stderr).
    An exception out of main is returned in place of the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = f"SystemExit({exc.code!r})"
        except Exception as exc:  # a failed call, judged by verify.Checker
            code = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    return seconds, code, out.getvalue(), err.getvalue()


def run_cases(cli, wl, n, indices, directory, budget_s=None):
    """Run every command of the workload on each case in turn, through the
    current `cli.main`. Returns one record per case: a speed probe taken just
    before, wall seconds per command, stdout bytes, and per command the exit
    code, the kept stdout and the stderr."""
    records, spent = [], 0.0
    for index in indices:
        record = {"n": n, "index": index, "probe": speed.probe(), "seconds": {},
                  "stdout_bytes": 0, "calls": {}}
        for command in wl.commands:
            argv = [command, "-i", gen.input_path(directory, command, index), "--mode", wl.mode]
            seconds, code, out, err = call(cli.main, argv)
            record["seconds"][command] = seconds
            record["stdout_bytes"] += len(out.encode())
            record["calls"][command] = [code, verify.keep(out), err[:1000]]
        records.append(record)
        spent += sum(record["seconds"].values())
        if budget_s is not None and spent >= budget_s:
            break
    return records


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def traced(cli, wl, job):
    """The per-layer pass. Returns (records of the traced cases, records of
    the other passes, per-layer values, absent names)."""
    n, indices = wl.n, job["indices"]
    k = len(indices)
    tracer = spans.Tracer()
    with tracer.installed() as absent:
        records = run_cases(cli, wl, n, indices, job["dir"])
    half, n_half = spans.Tracer(), gen.half_n(n)
    with half.installed():
        other = run_cases(cli, wl, n_half, indices, job["half_dir"])
    counter = spans.CompareCounter()
    counted = indices[: job["count_cases"]]
    with counter.installed():
        other += run_cases(cli, wl, n, counted, job["dir"])

    per_matrix = speed.scale([r["probe"] for r in records]) / 1e9 / k
    layers = {f"{name}.self_s": tracer.self_ns.get(name, 0) * per_matrix for _, _, name in spans.SPANS}
    for name in SCALED:
        big, small = tracer.self_ns.get(name, 0), half.self_ns.get(name, 0)
        layers[f"{name}.n_exp"] = (
            math.log(big / small) / math.log(n / n_half) if big > 0 and small > 0 else 0.0
        )
    pendant, realize = "reconstruct.find_pendant", "oracle.realize_on_topology"
    layers.update({
        "cli.stdout_bytes": sum(r["stdout_bytes"] for r in records) / k,
        "core.comparison_view.scale_bits": counter.grid_bits,
        "numeric.compares": _ratio(counter.compares, len(counted)),
        f"{pendant}.calls": tracer.calls.get(pendant, 0) / k,
        "reconstruct.peel_completion": _ratio(tracer.returned.get(pendant, 0), tracer.calls.get(pendant, 0)),
        f"{realize}.calls": tracer.calls.get(realize, 0) / k,
        "oracle.hit_ratio": _ratio(tracer.non_none.get(realize, 0), tracer.calls.get(realize, 0)),
    })
    return records, other, layers, absent


def main(argv) -> int:
    with open(argv[1]) as handle:
        job = json.load(handle)
    sys.path.insert(0, job["src"])
    import treexact.cli as cli

    expected = os.path.join(os.path.realpath(job["src"]), "treexact")
    if os.path.dirname(os.path.realpath(cli.__file__)) != expected:
        print(f"treexact imported from {cli.__file__}, not {expected}", file=sys.stderr)
        return 2
    wl = gen.WORKLOADS[job["workload"]]
    # Warm-up on a case of its own: lazy set-up in the program and the
    # interpreter finishes before timing, and no timed input repeats.
    result = {"other": run_cases(cli, wl, wl.n, ["warmup"], job["dir"])}
    if job["mode"] == "timed":
        result["records"] = run_cases(cli, wl, wl.n, job["indices"], job["dir"], job["budget_s"])
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        result["records"], more, result["layers"], result["absent"] = traced(cli, wl, job)
        result["other"] += more
    with open(argv[2], "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
