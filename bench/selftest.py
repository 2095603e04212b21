"""Self-test of the benchmark itself (about 1.5 minutes):

    python3 bench/selftest.py

- the output checks reject a weight vector with one count off, a hull-2
  witness, a wrong table cell and wrong certificate bounds;
- the cold-start guard rejects repetitions that share a process or whose
  second repetition is more than twice as fast as the first;
- the tracer leaves no public layer function, or name bound to one,
  untraced;
- live: two untraced exhaustive-k3 repetitions start cold; a traced
  exhaustive-k3 repetition counts as many leaves as the CLI prints; a traced
  analyze-large repetition enumerates codewords 3 times per command (true
  of the package this benchmark was written against; a change that drops
  the repeated dual enumeration is expected to change it).

Exits 0 when every test passes.
"""

import sys
import traceback

import numpy as np

import reference as ref
import run
import workloads

sys.path.insert(0, str(run.SRC))


def _hull1_record(n, k, seed):
    rows = workloads.systematic_code(n, k, np.random.default_rng(seed))
    weights = ref.weight_distribution(rows)
    d = ref.min_nonzero(weights)
    dual_d = ref.min_nonzero(ref.macwilliams(weights, k))
    return {"n": n, "k": k, "d": d, "dual_d": dual_d, "hull_dim": 1,
            "class": "proper", "weights": weights,
            "eaqecc": [[n, k - 1, d, n - k - 1], [n, n - k - 1, dual_d, k - 1]]}


def test_analysis_check():
    record = _hull1_record(8, 4, 5)
    assert workloads.check_analysis(record, 8, 4) == []
    for w in range(1, 9):
        off = dict(record, weights=list(record["weights"]))
        off["weights"][w] += 1
        assert workloads.check_analysis(off, 8, 4), f"count off at weight {w}"
    moved = dict(record, weights=list(record["weights"]))
    d = record["d"]
    moved["weights"][d] -= 1
    moved["weights"][d + 1] += 1  # same total, not a code's distribution
    assert workloads.check_analysis(moved, 8, 4)
    assert workloads.check_analysis(dict(record, dual_d=record["dual_d"] + 1), 8, 4)
    wrong_c = [[8, 3, d, 4], record["eaqecc"][1]]
    assert workloads.check_analysis(dict(record, eaqecc=wrong_c), 8, 4)


def _witness_stdout(rows, d):
    return (f"randomized: witness with d = {d} (explored 2048, seed 7)\n"
            + ref.render_matrix(rows))


def test_witness_check():
    rng = np.random.default_rng(3)
    check = workloads._random_check(9, 5, 4, 2048, 7)
    for hull in (1, 2):
        rows = workloads.systematic_code(9, 5, rng, hull=hull)
        d = ref.min_nonzero(ref.weight_distribution(rows))
        errors = check(_witness_stdout(rows, max(d, 4)), 0)
        if hull == 1 and d >= 4:
            assert errors == [], errors
            assert check(_witness_stdout(rows, d + 1), 0), "distance overclaimed"
        if hull == 2:
            assert any("hull dimension 2" in e for e in errors), errors


def test_table_and_certificate_check():
    rows = [f"{n},3,{workloads._closed_form_k3(n)},1,exhaustive"
            for n in range(4, workloads.TABLE_MAX_N + 1)]
    good = "\n".join(["n,k,d,hull_dim,method"] + rows) + "\n"
    assert workloads.check_table(good, 0) == []
    assert workloads.check_table(good.replace("\n16,3,11,", "\n16,3,12,"), 0)
    assert workloads.check_table(good, 1)
    cert = ("no [16,3,>=12] hull-1 code exists (exhaustive; 8733 multiplicity "
            "vectors examined, per-column bounds (0, 1))\n")
    assert workloads.check_certificate(cert, 0) == []
    assert workloads.check_certificate(cert.replace("(0, 1)", "(0, 2)"), 0)


def test_cold_start_guard():
    assert run.cold_start_violations([1, 2, 3], [10.0, 9.0]) == []
    assert run.cold_start_violations([1, 2, 1], [10.0, 9.0])
    assert run.cold_start_violations([1, 2, 3], [10.0, 4.0])


def test_trace_coverage():
    import hullforge.cli  # noqa: F401 - loads every layer
    import tracer
    assert tracer.untraced_bindings(), "nothing to trace before install"
    tracer.install()
    assert tracer.untraced_bindings() == []


def test_live_cold_start():
    res = run.run_workload("exhaustive-k3", 0, 0, trace=False)
    assert res["correct"], res["errors"]
    pids = [s["pid"] for s in res["samples"]]
    assert len(pids) >= 2 + 3 and len(set(pids)) == len(pids), pids


def test_live_trace_crosschecks():
    res = run.run_workload("exhaustive-k3", 0, 0, trace=True)
    assert res["correct"], res["errors"]  # includes leaves == CLI examined
    res = run.run_workload("analyze-large", 0, 0, trace=True)
    assert res["correct"], res["errors"]
    per_command = res["metrics"]["code.weights.calls"]["value"] / len(workloads.ANALYZE_SIZES)
    assert per_command == 3, per_command


def main():
    tests = [v for k, v in globals().items() if k.startswith("test_")]
    failed = 0
    for test in tests:
        try:
            test()
            print(f"PASS {test.__name__}")
        except Exception:  # noqa: BLE001 - report every test
            failed += 1
            print(f"FAIL {test.__name__}\n{traceback.format_exc()}")
    print(f"{len(tests) - failed}/{len(tests)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
