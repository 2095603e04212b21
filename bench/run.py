"""hullforge benchmark: cold-start CLI workloads, checked outputs, per-layer
trace.

    python3 bench/run.py --workload exhaustive-k3 --seed 1 --seconds 30 --trace 0

Closed loop, one client: this script runs one repetition at a time, each in
a fresh interpreter (worker.py), until --seconds have passed (at least two
repetitions).  Every output is checked with the benchmark's own GF(4)
reference (reference.py) and must be byte-identical across repetitions.
--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced repetitions and reports the per-layer metrics of the traced ones.
--workload all runs every workload in turn.

The last stdout line is one JSON object {correct, attempted, failed,
metrics}; the exit code is 0 when every check passed, 1 when one failed and
2 when the benchmark could not run at all (for example without src/).
README.md explains the workloads and the metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "bench"

MIN_REPS = 2
MIN_SETUPS = 5
WORKER_TIMEOUT_S = 150
COLD_START_RATIO = 2.0  # repetition 2 this much faster than 1: a memo leaked


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def worker_env(threads=None):
    """Environment of every interpreter the benchmark starts: this checkout's
    sources, bytecode cached under WORKDIR whatever the caller's
    PYTHONDONTWRITEBYTECODE says, and no inherited thread count."""
    env = dict(os.environ, PYTHONPATH=str(SRC),
               PYTHONPYCACHEPREFIX=str(WORKDIR / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("HULLFORGE_THREADS", None)
    if threads is not None:
        env["HULLFORGE_THREADS"] = threads
    return env


def spawn(job, threads=None):
    """Run worker.py on `job` in a fresh interpreter; returns its result or
    {"broken": reason}."""
    job = dict(job, spawned_at=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py")], input=json.dumps(job),
            capture_output=True, text=True, env=worker_env(threads), cwd=ROOT,
            timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"broken": f"worker exceeded {WORKER_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"broken": f"worker exited {proc.returncode}: {proc.stderr[-400:]}"}
    try:
        return json.loads(lines[-1])
    except ValueError:
        return {"broken": f"worker printed no result: {lines[-1][:200]!r}"}


def warm_up():
    """Import the package once, so that every timed start reads compiled
    bytecode as an installed package would."""
    proc = subprocess.run([sys.executable, "-c", "import hullforge.cli, workloads"],
                          env=dict(worker_env(), PYTHONPATH=f"{SRC}{os.pathsep}{BENCH}"),
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"cannot import hullforge: {proc.stderr[-400:]}")


# -- checks ------------------------------------------------------------------


def command_errors(workload, index, result, first):
    """Why command `index` of a repetition failed; empty when it passed."""
    if result is None:
        return ["no result"]
    if result["error"]:
        return ["raised " + result["error"].strip().splitlines()[-1]]
    errors = workload.checks[index](result["stdout"], result["exit"])
    if first is not None and result["stdout"] != first["stdout"]:
        errors.append("stdout differs from repetition 1")
    return errors


def cold_start_violations(pids, walls):
    """Signs that repetitions did not start cold: a process id used twice,
    or a second untraced repetition (`walls` in run order) more than
    COLD_START_RATIO times faster than the first."""
    out = []
    if len(set(pids)) != len(pids):
        out.append(f"repetitions shared a process: pids {pids}")
    if len(walls) >= 2 and walls[1] * COLD_START_RATIO < walls[0]:
        out.append(f"repetition 2 took {walls[1]:.3f} s after {walls[0]:.3f} s")
    return out


def trace_crosscheck_errors(workload, rep):
    """The traced leaf and certificate-vector counts must equal the counts
    the CLI prints."""
    if workload.crosscheck is None or "crosscheck" not in rep:
        return []
    cc = rep["crosscheck"]
    if cc["error"]:
        return ["trace cross-check command raised"]
    errors, examined = workloads.check_exhaustive_search(cc["stdout"], cc["exit"])
    layers = rep["layers"]
    leaves = layers["search.exhaustive.leaves"][0]
    if examined is not None and leaves != examined:
        errors.append(f"traced leaves {leaves} != CLI examined {examined}")
    printed = sum(workloads.certificate_vectors(c["stdout"]) for c in rep["commands"])
    if layers["search.certify.vectors"][0] != printed:
        errors.append(f"traced certificate vectors "
                      f"{layers['search.certify.vectors'][0]} != CLI {printed}")
    return errors


# -- one workload --------------------------------------------------------------


def summary(values, unit):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"value": statistics.median(values), "unit": unit, "q1": q1, "q3": q3,
            "n": len(values)}


def run_workload(name, seed, seconds, trace):
    WORKDIR.mkdir(parents=True, exist_ok=True)
    workload = workloads.build(name, seed, WORKDIR)
    warm_up()
    job = {"workload": name, "seed": seed, "workdir": str(WORKDIR)}
    modes = (False, True) if trace else (False,)

    reps = []
    deadline = time.monotonic() + seconds
    while len(reps) < MIN_REPS or time.monotonic() < deadline:
        traced = modes[len(reps) % len(modes)]
        rep = spawn(dict(job, trace=traced), workload.threads)
        rep["traced"] = traced
        reps.append(rep)
        if "broken" in rep:
            break
    runs = list(reps)
    setups = [r["setup_s"] for r in reps if "setup_s" in r]
    while len(setups) < MIN_SETUPS and "broken" not in runs[-1]:
        extra = spawn(dict(job, setup_only=True))
        runs.append(extra)
        setups.append(extra.get("setup_s"))
    checked = list(reps)
    if workload.threads is not None and "broken" not in reps[-1]:
        # outside the timed region: one thread must print the same bytes
        control = spawn(dict(job, trace=False), "1")
        runs.append(control)
        checked.append(control)

    attempted, failed, errors = 0, 0, []
    first = reps[0].get("commands")
    for rep in checked:
        if "broken" in rep:
            errors.append(rep["broken"])
        for i in range(len(workload.commands)):
            result = rep["commands"][i] if "commands" in rep else None
            errs = command_errors(workload, i, result, first[i] if first else None)
            attempted += 1
            if errs:
                failed += 1
                errors.extend(f"{' '.join(workload.commands[i])}: {e}" for e in errs)
    plain = [r for r in reps if "wall_s" in r and not r["traced"]]
    traced = [r for r in reps if "wall_s" in r and r["traced"]]
    guard = cold_start_violations([r["pid"] for r in runs if "pid" in r],
                                  [r["wall_s"] for r in plain])
    for rep in reps:
        guard += trace_crosscheck_errors(workload, rep)
    metrics = {}
    if not trace and plain and None not in setups:
        metrics = {
            "setup_s": summary(setups, "s"),
            "wall_s": summary([r["wall_s"] for r in plain], "s"),
            "peak_rss_mb": summary([r["peak_rss_mb"] for r in plain], "MB"),
        }
    elif trace and plain and traced:
        for key, (_, unit) in traced[0]["layers"].items():
            metrics[key] = summary([r["layers"][key][0] for r in traced], unit)
        overhead = (statistics.median(r["wall_s"] for r in traced)
                    - statistics.median(r["wall_s"] for r in plain))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s",
                                       "n": len(traced)}
    return {
        "workload": name,
        "correct": not errors and not guard and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "errors": errors + guard,
        "metrics": metrics,
        "samples": [{k: r.get(k) for k in ("pid", "traced", "setup_s", "wall_s",
                                           "peak_rss_mb", "broken")} for r in runs],
    }


# -- provenance and output -----------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "hullforge").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def provenance(seed, seconds, trace):
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "limits": "shared machine: no CPU pinning, frequency or cache control, "
                  "no system-wide tracing",
    }


def report(result):
    name = result["workload"]
    for key, m in result["metrics"].items():
        spread = f"  q1 {m['q1']:.6g}  q3 {m['q3']:.6g}" if "q1" in m else ""
        print(f"{name}  {key:<45} {m['value']:.6g} {m['unit']}{spread}  n={m['n']}")
    ratio = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"{name}  {'fail_ratio':<45} {ratio:.6g}  "
          f"({result['failed']}/{result['attempted']} commands)")
    for err in result["errors"]:
        print(f"{name}  FAILED: {err}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hullforge" / "cli.py").is_file():
        print(f"error: no hullforge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the checks read hullforge.bounds

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    prov = provenance(args.seed, args.seconds, args.trace)
    print("provenance " + json.dumps(prov))
    try:
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace))
                   for n in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = WORKDIR / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    for res in results:
        report(res)
        path = out_dir / f"{res['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(dict(res, provenance=prov), indent=2))

    prefix = len(results) > 1
    metrics = {
        (f"{r['workload']}.{k}" if prefix else k): {"value": m["value"], "unit": m["unit"]}
        for r in results for k, m in r["metrics"].items()
    }
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
