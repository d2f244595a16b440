"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import hostspeed  # noqa: E402
import run        # noqa: E402
import tracer     # noqa: E402
import workloads  # noqa: E402

SMALLEST = {"orbit Z{1}".format(*workloads.ORBIT_JOBS[0]),
            "semidirect Z{1}".format(*workloads.ORBIT_JOBS[2]),
            "quotient k{} Z{}".format(*workloads.QUOTIENT_RUNGS[0]),
            "verify"}


@pytest.fixture
def workdir(monkeypatch):
    monkeypatch.chdir(ROOT)
    os.makedirs(os.path.join(run.OUT, "work"), exist_ok=True)
    path = os.path.relpath(tempfile.mkdtemp(dir=os.path.join(run.OUT,
                                                              "work")))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _smallest_jobs(name, workdir):
    wl = workloads.build(name, 3, workdir)
    for path, text in wl.files.items():
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    jobs = {}
    for job in wl.round_jobs:
        if job.rung in SMALLEST or job.rung.startswith("tour "):
            jobs.setdefault(job.rung, job)
    return list(jobs.values())


def _job_view(job):
    return (job.rung, job.argv, job.stdout, job.emit_arrow_lines)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(name):
    first = workloads.build(name, 5, "w")
    again = workloads.build(name, 5, "w")
    other = workloads.build(name, 6, "w")
    assert first.files == again.files
    assert [_job_view(j) for j in first.round_jobs] == \
        [_job_view(j) for j in again.round_jobs]
    assert first.files != other.files


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_expectations_match_program_on_smallest_rung(name, workdir):
    jobs = _smallest_jobs(name, workdir)
    assert jobs
    for job in jobs:
        _wall, result, problem = run._run_job(job, 0, False)
        assert problem is None, f"{job.rung}: {problem}: {result}"


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_and_untraced_stdout_identical(name, workdir):
    for job in _smallest_jobs(name, workdir):
        _w, plain, problem = run._run_job(job, 0, False)
        assert problem is None
        _w, traced, problem = run._run_job(job, 1, True)
        assert problem is None
        assert traced["stdout"] == plain["stdout"]
        assert traced["rc"] == plain["rc"]
        assert traced["layers"]["cli.main.self_s"] > 0
        assert {span[0] for span in traced["spans"]} == {1}


def test_install_rebinds_every_namespace_and_restores():
    import groupoids
    from groupoids import constructions, core, fileformat, suite

    before = {name: dict(vars(mod)) for name, mod in sys.modules.items()
              if name == "groupoids" or name.startswith("groupoids.")}
    original = core.validate_groupoid
    t = tracer.Tracer(0).install()
    try:
        wrapper = core.validate_groupoid
        assert wrapper is not original and wrapper.__wrapped__ is original
        for mod in (fileformat, constructions, suite, groupoids):
            assert mod.validate_groupoid is wrapper
        assert all(hasattr(check, "__wrapped__")
                   for check in suite.ALL_CHECKS)
        assert suite.ALL_CHECKS[6] is suite.check_universal_property
        suite.check_zmod4_inversion()
    finally:
        t.uninstall()
    after = {name: dict(vars(mod)) for name, mod in sys.modules.items()
             if name in before}
    assert all(after[name][key] is value
               for name, space in before.items()
               for key, value in space.items())
    names = {span[3] for span in t.spans}
    assert "suite.check_zmod4_inversion" in names
    assert "constructions.orbit_groupoid" in names


def test_self_time_subtracts_children():
    t = tracer.Tracer(4)
    t.spans = [(4, 1, 0, "core.validate_groupoid", 2_000, 5_000),
               (4, 2, 0, "core.is_covering", 6_000, 7_000),
               (4, 0, -1, "cli.main", 0, 10_000)]
    seconds, counters = t.layer_metrics()
    assert seconds["cli.main.self_s"] == pytest.approx(6e-6)
    assert seconds["core.validate_groupoid.self_s"] == pytest.approx(3e-6)
    assert seconds["core.predicates.self_s"] == pytest.approx(1e-6)
    assert counters["errors.size_cap.count"] == 0


def test_tail_has_ten_samples_beyond():
    values = [float(v) for v in range(30)]
    assert run.tail(values) == (19.0, 66, 30)
    assert run.tail(values[:5]) == (4.0, 100, 5)


def test_each_timing_is_scaled_by_the_samples_around_it():
    job = workloads.Job(rung="r", argv=[], stdout=[])
    plain = [(job, 2.0, {"seconds": 1.0}, 0), (job, 4.0, {"seconds": 3.0}, 1)]
    setups = [(0.5, 0), (0.25, 2)]
    speed = [hostspeed.REFERENCE_S, hostspeed.REFERENCE_S,
             2 * hostspeed.REFERENCE_S, 2 * hostspeed.REFERENCE_S]
    factors = []

    def factor(k):
        factors.append(k)
        return hostspeed.scale(speed[k:k + 2])

    scaled, (pct, count) = run._timings(plain, setups, factor)
    assert (pct, count) == (100, 2)
    assert scaled["jobs_per_s"] == pytest.approx(2 / (2.0 + 4.0 / 1.5))
    assert scaled["job_s_p50"] == pytest.approx((1.0 + 3.0 / 1.5) / 2)
    assert scaled["job_s_tail"] == pytest.approx(3.0 / 1.5)
    assert scaled["setup_s"] == pytest.approx((0.5 + 0.125) / 2)
    assert set(factors) == {0, 1, 2}


def test_host_speed_work_is_fixed():
    assert hostspeed.work() == hostspeed.work()
    assert hostspeed.sample() > 0


def _bench(args, cwd):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


def test_planted_wrong_line_is_caught():
    args = ["--workload", "quotient-bundle", "--seed", "2", "--seconds",
            "0", "--trace", "0"]
    rc, lines = _bench(args, ROOT)
    result = json.loads(lines[-1])
    assert rc == 0 and result["correct"] and result["failed"] == 0
    rc, lines = _bench([*args, "--plant-wrong-line"], ROOT)
    result = json.loads(lines[-1])
    assert rc == 1 and not result["correct"] and result["failed"] == 1
    ratio = f"failed_ratio {1 / len(workloads.QUOTIENT_RUNGS):.4f}"
    assert any(line.startswith(ratio) for line in lines)


def test_fails_without_the_program(workdir):
    bare = os.path.join(workdir, "bare")
    shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    rc, lines = _bench(["--workload", "orbit-ladder", "--seed", "1",
                        "--seconds", "1", "--trace", "0"], bare)
    assert rc != 0
    assert not any(line.startswith("{") for line in lines)


def test_benchmark_json_lists_the_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == tracer.METRICS
