"""The repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed loop with one client: jobs run one at a time
through ``groupoids.cli.main``, each in a fresh interpreter (see worker.py),
so nothing cached in one job helps the next.  Jobs run in whole rounds
(every job of the workload's round once, in seeded order), and another
round starts only while one of average length still fits in ``--seconds``,
so every run measures the same mix.  Set-up (generating the inputs from
the seed, one cold start and ``import groupoids``) is repeated between
rounds, at least five times; ``setup_s`` is the median.  Every job's exit
code and stdout are checked against expectations derived from the
generating parameters (workloads.py).

The host's speed drifts over minutes, far more than a run can average out.
So before and after every job and every set-up the benchmark times a fixed
piece of pure-Python work in a fresh interpreter of its own (hostspeed.py),
and it scales each job's and each set-up's times by the reference time of
that work over the mean of the two samples around it: the end-to-end
timings are seconds on a host of the reference speed.  The unscaled values
are printed beside them.

With ``--trace 0`` the end-to-end metrics are reported.  With ``--trace 1``
each round runs once untraced and once traced; the traced jobs give the
per-layer metrics (per-job means), a per-rung table, and the tracing
slowdown.  The spans are written to .perfbench/ when the run ends.

The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed   # noqa: E402
import tracer      # noqa: E402
import workloads   # noqa: E402

SRC = "src"
OUT = ".perfbench"
SETUP_REPEATS = 5                 # at least; one more per extra round
JOB_TIMEOUT_S = 60
TAIL_BEYOND = 10


def _worker(spec):
    """Run one worker; returns (wall seconds, result dict or None, stderr)."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                           json.dumps(spec)], capture_output=True, text=True,
                          timeout=JOB_TIMEOUT_S)
    wall = time.perf_counter() - start
    try:
        result = json.loads(proc.stdout)
    except ValueError:
        result = None
    return wall, result, proc.stderr


def _host_speed():
    """Seconds the fixed work of hostspeed.py takes now, in a fresh
    interpreter, as a job would run it."""
    _wall, result, err = _worker({"hostspeed": True})
    if result is None:
        raise RuntimeError(f"cannot time the host's speed: {err}")
    return result["seconds"]


def _setup_once(name, seed, workdir):
    """Generate the inputs and time one cold start of the package."""
    start = time.perf_counter()
    wl = workloads.build(name, seed, workdir)
    for path, text in wl.files.items():
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    _wall, result, err = _worker({"src": SRC, "import_only": True})
    if result is None:
        raise RuntimeError(f"cannot import groupoids from {SRC}/: {err}")
    return time.perf_counter() - start, wl


def _emit_arrow_lines(path):
    with open(path, encoding="utf-8") as handle:
        blocks = handle.read().split("\n\n")
    return [sum(1 for line in block.splitlines() if line.startswith("arrow "))
            for block in blocks]


def _judge(job, result):
    """None if the job's output is right, else the reason it is not."""
    if result is None:
        return "worker crashed"
    if result["error"]:
        return result["error"]
    if result["rc"] != 0:
        return f"exit code {result['rc']}"
    if not workloads.stdout_matches(job, result["stdout"].splitlines()):
        return "stdout differs from the expected answer"
    if job.emit is not None and \
            _emit_arrow_lines(job.emit) != job.emit_arrow_lines:
        return "emitted file has the wrong arrow lines"
    return None


def _run_job(job, job_id, trace):
    spec = {"src": SRC, "argv": job.argv, "trace": trace, "job": job_id}
    try:
        wall, result, err = _worker(spec)
    except subprocess.TimeoutExpired:
        return JOB_TIMEOUT_S, None, f"timed out after {JOB_TIMEOUT_S} s"
    problem = _judge(job, result)
    if problem is not None and err:
        problem += f" ({err.strip().splitlines()[-1]})"
    return wall, result, problem


def tail(values):
    """The highest percentile of values with at least TAIL_BEYOND samples
    beyond it: (value, percentile, sample count), or the maximum when there
    are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100, n
    return ordered[n - TAIL_BEYOND - 1], 100 * (n - TAIL_BEYOND) // n, n


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant-wrong-line", action="store_true",
                        help="corrupt one expected line (control: the run "
                             "must then report a failure)")
    return parser.parse_args(argv)


def main(argv=None):
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "groupoids", "cli.py")):
        print(f"run.py: no {SRC}/groupoids here; run it from the root of a "
              f"groupoids checkout", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(OUT, "work"), exist_ok=True)
    workdir = os.path.relpath(tempfile.mkdtemp(
        prefix=f"{args.workload}-{args.seed}-", dir=os.path.join(OUT, "work")))
    try:
        return _bench(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _bench(args, workdir):
    # host speed samples; the job or set-up after sample k is scaled by
    # samples k and k + 1
    speed = [_host_speed()]
    seconds, wl = _setup_once(args.workload, args.seed, workdir)
    setups = [(seconds, 0)]               # (seconds, k)
    if args.plant_wrong_line:
        wl.round_jobs[0].stdout[0] += " [planted]"

    passes = (False, True) if args.trace else (False,)
    runs = {p: [] for p in passes}   # trace flag -> [(job, wall, result, k)]
    failures = []
    start = time.perf_counter()
    job_id = 0
    rounds = 0
    while True:
        if rounds:
            # set up again between rounds, so that the median set-up time
            # samples the whole run, as the jobs do; the inputs are the same
            speed.append(_host_speed())
            setups.append((_setup_once(args.workload, args.seed, workdir)[0],
                           len(speed) - 1))
        for trace in passes:
            for job in wl.round_jobs:
                speed.append(_host_speed())
                wall, result, problem = _run_job(job, job_id, trace)
                job_id += 1
                runs[trace].append((job, wall, result, len(speed) - 1))
                if problem is not None:
                    failures.append(f"{job.rung}: {problem}")
        rounds += 1
        elapsed = time.perf_counter() - start
        # start another round only if one more of average length fits
        if elapsed * (rounds + 1) / rounds > args.seconds:
            break

    while len(setups) < SETUP_REPEATS:
        speed.append(_host_speed())
        setups.append((_setup_once(args.workload, args.seed, workdir)[0],
                       len(speed) - 1))
    speed.append(_host_speed())
    attempted = sum(len(v) for v in runs.values())
    for line in failures[:5]:
        print(f"FAILED {line}")
    print(f"failed_ratio {len(failures) / attempted:.4f} "
          f"({len(failures)} of {attempted} jobs)")
    print(f"workload {args.workload}, seed {args.seed}: {rounds} rounds of "
          f"{len(wl.round_jobs)} jobs, closed loop, one client")
    if args.trace:
        metrics = _trace_metrics(wl, runs, speed)
    else:
        metrics = _end_to_end(runs[False], setups, speed,
                              len(wl.round_jobs))
    for name, (val, unit) in metrics.items():
        print(f"{name} {val:.6g} {unit}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": val, "unit": unit}
                    for name, (val, unit) in metrics.items()}}))
    return 0 if not failures else 1


def _timings(plain, setups, factor):
    """The timed end-to-end metrics, each time multiplied by factor(k)."""
    job_s = [r["seconds"] * factor(k)
             for _j, _w, r, k in plain if r is not None] or [0.0]
    value, pct, count = tail(job_s)
    return {
        "jobs_per_s": len(plain) / sum(wall * factor(k)
                                       for _j, wall, _r, k in plain),
        "job_s_p50": statistics.median(job_s),
        "job_s_tail": value,
        "setup_s": statistics.median(sec * factor(k) for sec, k in setups),
    }, (pct, count)


def _end_to_end(plain, setups, speed, round_size):
    scaled, (pct, count) = _timings(
        plain, setups, lambda k: hostspeed.scale(speed[k:k + 2]))
    unscaled, _ = _timings(plain, setups, lambda k: 1.0)
    print(f"job_s_tail is p{pct} of {count} jobs")
    print(f"host speed: reference work took {statistics.median(speed):.4g} s "
          f"(median of {len(speed)} samples); unscaled: "
          + ", ".join(f"{k} {v:.6g}" for k, v in unscaled.items()))
    units = {"jobs_per_s": "1/s", "job_s_p50": "s", "job_s_tail": "s",
             "setup_s": "s"}
    metrics = {name: (val, units[name]) for name, val in scaled.items()}
    # the largest worker of each round, median over rounds: single jobs
    # of one input differ by up to 8 % in peak memory from run to run
    peaks = [max((r["maxrss_kb"] for _j, _w, r, _k in plain[i:i + round_size]
                  if r is not None), default=0)
             for i in range(0, len(plain), round_size)]
    metrics["peak_rss_mb"] = (statistics.median(peaks) / 1024, "MB")
    return metrics


def _trace_metrics(wl, runs, speed):
    traced = [(job, r) for job, _wall, r, _k in runs[True] if r is not None]
    values = tracer.combine([(r["layers"], r["counters"]) for _j, r in traced])
    plain, slow = (sum(wall * hostspeed.scale(speed[k:k + 2])
                       for _j, wall, _r, k in runs[trace])
                   for trace in (False, True))
    values["trace.slowdown"] = slow / plain
    print(f"tracing: untraced {len(runs[False]) / plain:.4g} jobs/s, "
          f"traced {len(runs[True]) / slow:.4g} jobs/s")
    _rung_table(wl, runs[False], traced)
    _write_spans(traced)
    return {name: (values[name], unit)
            for name, (unit, _better) in tracer.METRICS.items()}


def _rung_table(wl, plain, traced):
    """Median job seconds and the dominant layer's self time per rung."""
    print(f"{'rung':28s} {'job_s_p50':>10s}  dominant self time (median)")
    rows = []
    for rung in dict.fromkeys(job.rung for job in wl.round_jobs):
        secs = [r["seconds"] for job, _w, r, _k in plain
                if job.rung == rung and r is not None]
        layers = [r["layers"] for job, r in traced if job.rung == rung]
        if secs and layers:
            keys = [k for k in layers[0] if k.endswith(".self_s")]
            top = max(keys, key=lambda k: sum(d[k] for d in layers))
            rows.append((statistics.median(secs), rung, top,
                         statistics.median(d[top] for d in layers)))
    for secs, rung, top, top_s in sorted(rows):
        print(f"{rung:28s} {secs:10.4f}  {top} {top_s:.4f} s")


def _write_spans(traced):
    path = os.path.join(OUT, "spans.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        for job, r in traced:
            handle.write(json.dumps({"rung": job.rung, "spans": r["spans"]}))
            handle.write("\n")
    print(f"spans written to {path}")


if __name__ == "__main__":
    sys.exit(main())
