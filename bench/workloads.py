"""The benchmark's workloads: the CLI commands each one runs, the inputs it
generates from the workload seed, and the check applied to every output.

Why each workload exists, and which layers it does and does not exercise,
is written down in README.md next to this file.
"""

import json
import random
import re
from dataclasses import dataclass, field
from math import ceil
from pathlib import Path

import numpy as np

import reference as ref

NAMES = ("exhaustive-k3", "random-search", "analyze-large")

# exhaustive-k3
TABLE_MAX_N = 22
CERT_N, CERT_K, CERT_D = 16, 3, 12
# random-search: (n, k, target_d, budget, number of derived seeds)
RANDOM_RUNS = ((9, 5, 4, 2048, 4), (12, 6, 6, 1024, 1))
RANDOM_THREADS = "2"
# analyze-large: hull-1 codes in systematic form [I | A]
ANALYZE_SIZES = ((22, 11), (23, 11), (24, 12))


@dataclass
class Workload:
    name: str
    commands: list                       # argv lists for hullforge.cli.main
    checks: list                         # one callable(stdout, exit) per command
    threads: str | None = None           # HULLFORGE_THREADS for the worker
    files: dict = field(default_factory=dict)   # path -> text, written in set-up
    crosscheck: list | None = None       # traced runs only, after the trace

    def write_inputs(self):
        for path, text in self.files.items():
            Path(path).write_text(text, encoding="ascii")


def build(name, seed, workdir):
    """The workload `name` for `seed`; input files live under `workdir`."""
    if name == "exhaustive-k3":
        return _exhaustive()
    if name == "random-search":
        return _random(seed)
    if name == "analyze-large":
        return _analyze(seed, Path(workdir))
    raise ValueError(f"unknown workload {name!r}")


# -- exhaustive-k3 -----------------------------------------------------------


def _exhaustive():
    # deterministic: the workload ignores the seed
    table = ["table", "--max-n", str(TABLE_MAX_N), "--k", "3",
             "--exhaustive-max-n", str(TABLE_MAX_N)]
    cert = ["search", str(CERT_N), str(CERT_K), "--hull", "1",
            "--target-d", str(CERT_D)]
    return Workload(
        "exhaustive-k3", [table, cert], [check_table, check_certificate],
        crosscheck=["search", str(TABLE_MAX_N), "3"],
    )


def _closed_form_k3(n):
    from hullforge.bounds import dh_closed_form
    value = dh_closed_form(n, 3)
    return value.d if value is not None and value.exact else None


def check_table(stdout, exit_code):
    if exit_code != 0:
        return [f"table exited {exit_code}"]
    lines = stdout.splitlines()
    if not lines or lines[0] != "n,k,d,hull_dim,method":
        return ["table: missing CSV header"]
    rows = lines[1:]
    expected_ns = list(range(4, TABLE_MAX_N + 1))
    if len(rows) != len(expected_ns):
        return [f"table: {len(rows)} rows, expected {len(expected_ns)}"]
    errors = []
    for n, row in zip(expected_ns, rows):
        want = f"{n},3,{_closed_form_k3(n)},1,exhaustive"
        if row != want:
            errors.append(f"table cell {row!r}, expected {want!r}")
    return errors


_CERT_RE = re.compile(
    r"no \[(\d+),(\d+),>=(\d+)\] hull-1 code exists \(exhaustive; (\d+) "
    r"multiplicity vectors examined, per-column bounds \((\d+), (\d+)\)\)")


def _column_bounds(n, d):
    # multiplicity interval for k = 3, derived from the line-sum condition
    lower = max(0, 4 * d - 3 * n)
    upper = min(n, n - ceil(15 * d / 12))
    return lower, upper


def certificate_vectors(stdout):
    """Vectors examined according to a certificate line; 0 for other output."""
    m = _CERT_RE.fullmatch(stdout.rstrip("\n"))
    return int(m.group(4)) if m else 0


def check_certificate(stdout, exit_code):
    if exit_code != 0:
        return [f"certificate exited {exit_code}"]
    m = _CERT_RE.fullmatch(stdout.rstrip("\n"))
    if not m:
        return [f"certificate line not recognised: {stdout!r}"]
    n, k, d, examined, lo, hi = (int(x) for x in m.groups())
    errors = []
    if (n, k, d) != (CERT_N, CERT_K, CERT_D):
        errors.append(f"certificate is for [{n},{k},{d}]")
    if _closed_form_k3(CERT_N) >= CERT_D:
        errors.append("certificate contradicts the closed form")
    if examined < 1:
        errors.append("certificate examined no vectors")
    if (lo, hi) != _column_bounds(n, d):
        errors.append(f"certificate bounds ({lo}, {hi}) != {_column_bounds(n, d)}")
    return errors


_EXHAUSTIVE_RE = re.compile(
    r"exhaustive: best_d = (\d+) \((\d+) multiplicity vectors examined\)")


def check_exhaustive_search(stdout, exit_code):
    """Check of `search N 3`; returns (errors, examined count)."""
    first, _, body = stdout.partition("\n")
    m = _EXHAUSTIVE_RE.fullmatch(first)
    if exit_code != 0 or not m:
        return [f"search {TABLE_MAX_N} 3 output not recognised: {first!r}"], None
    best_d, examined = int(m.group(1)), int(m.group(2))
    errors = []
    if best_d != _closed_form_k3(TABLE_MAX_N):
        errors.append(f"search {TABLE_MAX_N} 3 best_d = {best_d}")
    errors += _verify_witness(body, TABLE_MAX_N, 3, best_d)
    return errors, examined


# -- random-search -----------------------------------------------------------


def _random(seed):
    rng = random.Random(seed)
    commands, checks = [], []
    for n, k, target, budget, count in RANDOM_RUNS:
        for _ in range(count):
            s = rng.randrange(1, 2**31)
            commands.append(["search", str(n), str(k), "--hull", "1",
                             "--target-d", str(target), "--budget", str(budget),
                             "--seed", str(s)])
            checks.append(_random_check(n, k, target, budget, s))
    return Workload("random-search", commands, checks,
                    threads=RANDOM_THREADS)


_WITNESS_RE = re.compile(
    r"randomized: witness with d = (\d+) \(explored (\d+), seed (\d+)\)")
_NO_WITNESS_RE = re.compile(
    r"no witness with d >= (\d+) found \(randomized, explored (\d+), "
    r"best hull-1 distance seen: (\d+)\)")


def _random_check(n, k, target, budget, seed):
    def check(stdout, exit_code):
        if exit_code != 0:
            return [f"search exited {exit_code}"]
        first, _, body = stdout.partition("\n")
        m = _WITNESS_RE.fullmatch(first)
        if m:
            d, explored, s = (int(x) for x in m.groups())
            errors = _verify_witness(body, n, k, d)
            if d < target:
                errors.append(f"witness d = {d} below target {target}")
            if s != seed:
                errors.append(f"witness reports seed {s}, ran {seed}")
        else:
            m = _NO_WITNESS_RE.fullmatch(first)
            if not m or body:
                return [f"search output not recognised: {first!r}"]
            t, explored, best = (int(x) for x in m.groups())
            errors = []
            if t != target or best >= target:
                errors.append(f"no-witness line inconsistent: {first!r}")
        if explored != budget:
            errors.append(f"explored {explored}, budget {budget}")
        return errors
    return check


def _verify_witness(text, n, k, d):
    """Re-derive n, k, hull dimension and distance of a printed matrix."""
    try:
        wn, wk, rows = ref.parse_matrix(text)
    except ValueError as exc:
        return [f"witness matrix unreadable: {exc}"]
    if (wn, wk) != (n, k):
        return [f"witness is [{wn},{wk}], expected [{n},{k}]"]
    if ref.rank(rows) != k:
        return ["witness generator is rank deficient"]
    errors = []
    hd = ref.hull_dim(rows)
    if hd != 1:
        errors.append(f"witness hull dimension {hd}, expected 1")
    actual = ref.min_nonzero(ref.weight_distribution(rows))
    if actual != d:
        errors.append(f"witness distance {actual}, claimed {d}")
    return errors


# -- analyze-large -----------------------------------------------------------


def systematic_code(n, k, rng, hull=1):
    """A generator [I | A] with uniform A, redrawn until the Hermitian hull
    has dimension `hull`."""
    while True:
        a = rng.integers(0, 4, size=(k, n - k))
        rows = [[int(i == j) for j in range(k)] + [int(x) for x in a[i]]
                for i in range(k)]
        if ref.hull_dim(rows) == hull:
            return rows


def _analyze(seed, workdir):
    rng = np.random.default_rng([seed, 2])
    commands, checks, files = [], [], {}
    for n, k in ANALYZE_SIZES:
        path = workdir / f"code_{n}_{k}.g4m"
        files[str(path)] = ref.render_matrix(systematic_code(n, k, rng))
        commands.append(["analyze", str(path), "--eaqecc", "--format", "json"])
        checks.append(_analyze_check(n, k))
    return Workload("analyze-large", commands, checks, files=files)


def _analyze_check(n, k):
    def check(stdout, exit_code):
        if exit_code != 0:
            return [f"analyze exited {exit_code}"]
        try:
            record = json.loads(stdout)
        except ValueError:
            return [f"analyze output is not JSON: {stdout[:80]!r}"]
        return check_analysis(record, n, k)
    return check


def check_analysis(record, n, k):
    """Consistency of an `analyze --eaqecc --format json` record for a
    hull-1 [n, k] code, re-derived from its weight distribution alone."""
    if (record.get("n"), record.get("k")) != (n, k):
        return [f"analyze reports [{record.get('n')},{record.get('k')}], expected [{n},{k}]"]
    if record.get("hull_dim") != 1 or record.get("class") != "proper":
        return [f"analyze reports hull {record.get('hull_dim')} / {record.get('class')}"]
    weights = record.get("weights")
    if not isinstance(weights, list) or len(weights) != n + 1:
        return ["analyze weights missing or of the wrong length"]
    if sum(weights) != 4 ** k or weights[0] != 1:
        return [f"weights sum to {sum(weights)}, expected 4^{k}"]
    errors = []
    d = ref.min_nonzero(weights)
    if record.get("d") != d:
        errors.append(f"d = {record.get('d')}, least nonzero weight is {d}")
    dual = ref.macwilliams(weights, k)
    if dual is None:
        return errors + ["weights have no valid MacWilliams transform"]
    dual_d = ref.min_nonzero(dual)
    if record.get("dual_d") != dual_d:
        errors.append(f"dual_d = {record.get('dual_d')}, MacWilliams gives {dual_d}")
    want = [[n, k - 1, d, n - k - 1], [n, n - k - 1, dual_d, k - 1]]
    if record.get("eaqecc") != want:
        errors.append(f"eaqecc = {record.get('eaqecc')}, expected {want}")
    return errors
