"""Command-line surface: analyze matrix files, run searches, regenerate the
distance table, and verify the fixture corpus and table reproductions.

Exit codes: 0 success, 1 verification mismatch, 2 usage or parse error or a
file that cannot be read or written.
"""

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from . import bounds, construct, eaqecc, gf4, matfmt, search, witnesses
from .code import LinearCode
from .exceptions import BudgetExceededError, HullforgeError
from .hull import hull_dim, hull_report

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hullforge",
        description="Quaternary hull-1 code toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="analyze a generator matrix file")
    p_an.add_argument("path")
    p_an.add_argument("--eaqecc", action="store_true",
                      help="derive EAQECC parameters (requires hull dim 1)")
    p_an.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p_an.add_argument("--digits", action="store_true",
                      help="accept the 0123 input alphabet")

    p_se = sub.add_parser("search", help="search for a hull-1 code")
    p_se.add_argument("n", type=int)
    p_se.add_argument("k", type=int)
    p_se.add_argument("--hull", type=int, default=1,
                      help="target hull dimension (only 1 is supported)")
    p_se.add_argument("--target-d", type=int, default=None)
    p_se.add_argument("--seed", type=int, default=0)
    p_se.add_argument("--budget", type=int, default=100_000)

    p_ta = sub.add_parser("table", help="regenerate the distance table")
    p_ta.add_argument("--max-n", type=int, default=12)
    p_ta.add_argument("--k", type=int, default=None,
                      help="restrict to one dimension")
    p_ta.add_argument("--out", default=None,
                      help="output path prefix (writes PREFIX.json and PREFIX.csv)")
    p_ta.add_argument("--exhaustive-max-n", type=int, default=0,
                      help="settle k <= 3 cells up to this length by search")

    sub.add_parser("verify-paper", help="check fixtures and table reproductions")

    return parser


# -- analyze ---------------------------------------------------------------


def analysis_record(code: LinearCode, with_eaqecc=False):
    rep = hull_report(code)
    record = {
        "n": code.n,
        "k": code.k,
        "d": None,
        "dual_d": None,
        "hull_dim": rep.hull_dim,
        "class": rep.classification.value,
        "weights": None,
        "eaqecc": None,
    }
    try:
        wd = code.weight_distribution()
        record["d"] = wd.min_nonzero_weight()
        record["weights"] = list(wd.counts)
        # None for a full-space code, whose dual is the zero code
        record["dual_d"] = code.dual_weight_distribution().min_nonzero_weight()
    except BudgetExceededError:
        pass
    if with_eaqecc and rep.hull_dim == 1:
        pair = eaqecc.pair_params(code.n, code.k, record["d"], record["dual_d"])
        record["eaqecc"] = [[p.n, p.k, p.d, p.c] for p in pair]
    return record


def _emit_record(record, fmt, out):
    if fmt == "json":
        json.dump(record, out, indent=2)
        out.write("\n")
    elif fmt == "csv":
        writer = csv.writer(out)
        writer.writerow(["n", "k", "d", "dual_d", "hull_dim", "class"])
        writer.writerow([record["n"], record["k"], record["d"],
                         record["dual_d"], record["hull_dim"], record["class"]])
    else:
        out.write(f"[{record['n']},{record['k']},{record['d']}] code, "
                  f"dual distance {record['dual_d']}, "
                  f"hull dimension {record['hull_dim']} ({record['class']})\n")
        if record["weights"]:
            nz = {w: c for w, c in enumerate(record["weights"]) if c}
            out.write(f"weight distribution: {nz}\n")
        if record["eaqecc"]:
            pair = [str(eaqecc.EaqeccParams(*p)) for p in record["eaqecc"]]
            out.write("EAQECC pair: " + " and ".join(pair) + "\n")


def cmd_analyze(args, out):
    text = Path(args.path).read_text(encoding="ascii")
    matrix = matfmt.parse(text, digits=args.digits)
    code = LinearCode.from_generator(matrix)
    record = analysis_record(code, with_eaqecc=args.eaqecc)
    _emit_record(record, args.format, out)
    return EXIT_OK


# -- search ----------------------------------------------------------------


def cmd_search(args, out):
    if args.hull != 1:
        print("error: only hull dimension 1 is supported", file=sys.stderr)
        return EXIT_USAGE
    n, k = args.n, args.k
    if n < 2 or not 1 <= k < n:
        print("error: need n >= 2 and 1 <= k < n", file=sys.stderr)
        return EXIT_USAGE
    if args.budget < 1:
        print("error: need --budget >= 1", file=sys.stderr)
        return EXIT_USAGE
    if args.target_d is not None and not 1 <= args.target_d <= n:
        print("error: need 1 <= --target-d <= n", file=sys.stderr)
        return EXIT_USAGE
    if k <= 3:
        if args.target_d is not None:
            result = search.certify_nonexistence(n, k, args.target_d)
            if isinstance(result, search.NonexistenceCertificate):
                bounds = result.pruning_bounds
                reason = "Griesmer bound" if bounds is None else "exhaustive"
                tail = "" if bounds is None else f", per-column bounds {bounds}"
                out.write(
                    f"no [{n},{k},>={args.target_d}] hull-1 code exists "
                    f"({reason}; {result.vectors_examined} multiplicity "
                    f"vectors examined{tail})\n"
                )
                return EXIT_OK
            out.write(f"witness found (exhaustive), d = "
                      f"{result.witness.min_distance()}\n")
            out.write(matfmt.render(result.witness.generator))
            return EXIT_OK
        outcome = search.exhaustive_dh(n, k)
        out.write(f"exhaustive: best_d = {outcome.best_d} "
                  f"({outcome.explored} multiplicity vectors examined)\n")
        if outcome.witness is not None:
            out.write(matfmt.render(outcome.witness.generator))
        return EXIT_OK
    if args.seed < 0:
        # the exhaustive path above ignores the seed
        print("error: need --seed >= 0", file=sys.stderr)
        return EXIT_USAGE
    target = args.target_d if args.target_d is not None else 1
    outcome = search.random_search(n, k, target, seed=args.seed,
                                   budget=args.budget)
    if outcome.witness is None:
        out.write(f"no witness with d >= {target} found "
                  f"(randomized, explored {outcome.explored}, "
                  f"best hull-1 distance seen: {outcome.best_d})\n")
        return EXIT_OK
    out.write(f"randomized: witness with d = {outcome.best_d} "
              f"(explored {outcome.explored}, seed {args.seed})\n")
    out.write(matfmt.render(outcome.witness.generator))
    return EXIT_OK


# -- table -----------------------------------------------------------------


def table_cells(max_n, only_k=None, exhaustive_max_n=0):
    """Cells of the hull-1 distance table with method tags."""
    cells = []
    for n in range(2, max_n + 1):
        for k in range(1, n):
            if only_k is not None and k != only_k:
                continue
            cell = _table_cell(n, k, exhaustive_max_n)
            if cell is not None:
                cells.append(cell)
    return cells


def _table_cell(n, k, exhaustive_max_n):
    if k <= 3 and n <= exhaustive_max_n:
        outcome = search.exhaustive_dh(n, k)
        return {"n": n, "k": k, "d": outcome.best_d, "method": "exhaustive"}
    value = bounds.dh_closed_form(n, k)
    if value is not None:
        method = "formula" if value.exact else "bound"
        return {"n": n, "k": k, "d": value.d, "method": method}
    if n <= 12:
        d = bounds.table5_lookup(n, k)
        try:
            witnesses.claimed_distance(n, k)
            method = "witness"
        except HullforgeError:
            method = "paper"
        return {"n": n, "k": k, "d": d, "method": method}
    return None


def _write_table_csv(cells, out):
    writer = csv.writer(out)
    writer.writerow(["n", "k", "d", "hull_dim", "method"])
    for cell in cells:
        writer.writerow([cell["n"], cell["k"], cell["d"], 1, cell["method"]])


def cmd_table(args, out):
    cells = table_cells(args.max_n, args.k, args.exhaustive_max_n)
    if args.out:
        Path(args.out + ".json").write_text(json.dumps(cells, indent=2))
        with open(args.out + ".csv", "w", newline="") as fh:
            _write_table_csv(cells, fh)
        out.write(f"wrote {len(cells)} cells to {args.out}.json and "
                  f"{args.out}.csv\n")
    else:
        _write_table_csv(cells, out)
    return EXIT_OK


# -- verify-paper ----------------------------------------------------------


def _check(out, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  {detail}" if detail and not ok else ""
    out.write(f"[{status}] {label}{suffix}\n")
    return ok


def cmd_verify_paper(args, out):
    ok = True

    for name in construct.fixture_names():
        fx = construct.fixture(name)
        good, results, claims = construct.verify_fixture(fx)
        ok &= _check(out, f"fixture {name}", good,
                     f"computed {results}, claimed {claims}")

    # Griesmer table for dimension 3: 21 residues x s = 0..5
    griesmer_ok = True
    for s in range(6):
        for t in range(21):
            n = 21 * s + t
            if n < 4:
                continue
            expect = 16 * s + _GRIESMER_K3_OFFSET[t]
            if bounds.griesmer_max_d(n, 3) != expect:
                griesmer_ok = False
    ok &= _check(out, "Griesmer k=3 residue table (126 cells)", griesmer_ok)

    # multiplicity-vector case table for k = 2, n = 5s + 3
    table1_ok = True
    for s in (1, 2, 3):
        for m in _table1_vectors(s):
            mv = construct.MultiplicityVector(2, m)
            dim = hull_dim(construct.code_from_multiplicity(mv))
            if dim not in (0, 2):
                table1_ok = False
        all_equal = construct.code_from_multiplicity(
            construct.MultiplicityVector(2, (s,) * 5))
        if gf4.hermitian_gram(all_equal.generator).any():
            table1_ok = False
    ok &= _check(out, "k=2 case table: hull dim in {0,2}, all-equal is SO",
                 table1_ok)

    table6_ok = True
    bad = []
    for n, k, expected in eaqecc.table6_cells():
        try:
            derived = eaqecc.table6_entry(n, k)
        except HullforgeError as exc:
            derived = f"error: {exc}"
        if derived != expected:
            table6_ok = False
            bad.append((n, k, derived, expected))
    ok &= _check(out, "EAQECC table n<=12 from stored witnesses",
                 table6_ok, f"mismatches: {bad}")

    out.write("verification " + ("passed" if ok else "FAILED") + "\n")
    return EXIT_OK if ok else EXIT_MISMATCH


_GRIESMER_K3_OFFSET = {
    0: 0, 1: 0, 2: 0, 3: 1, 4: 2, 5: 3, 6: 4, 7: 4, 8: 5, 9: 6, 10: 7,
    11: 8, 12: 8, 13: 9, 14: 10, 15: 11, 16: 12, 17: 12, 18: 13, 19: 14,
    20: 15,
}


def _table1_vectors(s):
    return [
        (s - 1, s + 1, s + 1, s + 1, s + 1),
        (s + 1, s + 1, s - 1, s + 1, s + 1),
        (s + 1, s + 1, s + 1, s - 1, s + 1),
        (s + 1, s + 1, s + 1, s + 1, s - 1),
        (s, s, s + 1, s + 1, s + 1),
        (s + 1, s, s, s + 1, s + 1),
        (s + 1, s, s + 1, s, s + 1),
        (s + 1, s, s + 1, s + 1, s),
        (s + 1, s + 1, s, s, s + 1),
        (s + 1, s + 1, s, s + 1, s),
        (s + 1, s + 1, s + 1, s, s),
    ]


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    out = io.StringIO()
    handler = {
        "analyze": cmd_analyze,
        "search": cmd_search,
        "table": cmd_table,
        "verify-paper": cmd_verify_paper,
    }[args.command]
    try:
        status = handler(args, out)
    except (HullforgeError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # buffered output, emitted once in deterministic order
    sys.stdout.write(out.getvalue())
    return status


if __name__ == "__main__":
    sys.exit(main())
