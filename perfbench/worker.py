"""Run one benchmark job in this fresh interpreter.

Usage: python3 perfbench/worker.py '<json spec>'

The spec names the source directory, the CLI arguments, whether to trace
and the job id.  The job is timed here, around ``groupoids.cli.main`` only,
with stdout captured.  One JSON object goes to stdout: exit code, captured
stdout, seconds, peak RSS and, when traced, per-layer metrics and spans.
A spec with ``"import_only": true`` only imports the package, which is how
the benchmark times a cold start.  A spec with ``"hostspeed": true`` only
times the fixed work of hostspeed.py, in an interpreter as fresh as a job's,
and never imports the package.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
from contextlib import redirect_stdout


def main():
    spec = json.loads(sys.argv[1])
    if spec.get("hostspeed"):
        import hostspeed
        print(json.dumps({"seconds": hostspeed.sample()}))
        return
    sys.path.insert(0, spec["src"])
    from groupoids import cli
    if spec.get("import_only"):
        print("{}")
        return
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer
        tracer = Tracer(spec["job"]).install()
    captured = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with redirect_stdout(captured):
            rc = cli.main(spec["argv"])
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:    # the job failed; report it, do not crash
        rc = None
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    result = {"rc": rc, "stdout": captured.getvalue(), "seconds": seconds,
              "error": error,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        tracer.uninstall()
        result["layers"], result["counters"] = tracer.layer_metrics()
        result["spans"] = tracer.spans
    sys.stdout.write(json.dumps(result))


if __name__ == "__main__":
    main()
