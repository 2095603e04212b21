"""One repetition of a workload, in a fresh interpreter.

Reads a JSON job on stdin, imports hullforge and writes the workload's
input files (set-up), then runs the workload's commands through
hullforge.cli.main in this process and prints one JSON result line.
Nothing survives between repetitions: every memo in the package starts
empty.  Started by run.py; see README.md.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def run_command(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(argv)
        error = None
    except Exception:  # noqa: BLE001 - a raising command is a failed command
        status, error = None, traceback.format_exc()
    return {"argv": argv, "exit": status, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "error": error}


def main():
    job = json.loads(sys.stdin.read())
    import hullforge.cli as cli
    import workloads
    workload = workloads.build(job["workload"], job["seed"], job["workdir"])
    workload.write_inputs()
    setup_s = time.monotonic() - job["spawned_at"]
    result = {"pid": os.getpid(), "setup_s": setup_s}
    if job.get("setup_only"):
        print(json.dumps(result))
        return

    tracer = None
    if job.get("trace"):
        import tracer as tracing
        tracer = tracing.install()  # rebinds cli.main among the rest

    start = time.perf_counter()
    results = [run_command(cli, argv) for argv in workload.commands]
    result["wall_s"] = time.perf_counter() - start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["commands"] = results
    if tracer is not None:
        tracer.enabled = False
        result["layers"] = tracer.layer_metrics()
        if workload.crosscheck:
            result["crosscheck"] = run_command(cli, workload.crosscheck)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
