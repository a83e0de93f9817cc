"""Self-test of the output checkers: genuine outputs pass, corrupted ones fail.

Usage, from the root of a checkout:  python3 bench/selftest.py

Runs one op of each kind from the workloads, checks its real output, then
applies a deliberate corruption (a changed digit in a dims row, an
off-by-one rank, a wrong walk end, an off-by-one orbit word, a shifted
curve, a wrong verdict, perturbed Takagi and parabola values) and requires
the checker to reject it.  Exits 1 if any checker accepts a corrupted output
or rejects a genuine one.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import shutil
import sys
from pathlib import Path

import workloads
from checks import CheckFailed, Checker, Output

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORK = BENCH / "out" / "selftest"


def run_op(op, i: int) -> Output:
    from polyadic import cli
    out = WORK / f"op{i}.csv"
    so, se = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
        rc = cli.main(op.argv + ["--out", str(out)])
    meta = out.with_name(out.name + ".meta.json")
    return Output(rc, so.getvalue(), se.getvalue(),
                  out.read_text() if out.exists() else None,
                  json.loads(meta.read_text()) if meta.exists() else None)


def _csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _edit_rows(out: Output, fn) -> Output:
    rows = list(csv.reader(io.StringIO(out.text)))
    fn(rows)
    return dataclasses.replace(out, text=_csv(rows))


def _change_digit(rows):
    row = rows[len(rows) // 2]
    row[2] = row[2][:-1] + str((int(row[2][-1]) + 1) % 10)


def _bump_rank(rows):
    rows[1][3] = str(int(rows[1][3]) + 1)


def _repeat_orbit_row(rows):
    rows[101] = ["100"] + rows[102][1:]       # step 100 now shows step 101's point


def _shift_curve(rows):
    ys = [r[1] for r in rows[2:-1]]
    for r, y in zip(rows[2:-1], ys[1:] + ys[:1]):
        r[1] = y


def _perturb(col, row_index, delta):
    def fn(rows):
        rows[row_index][col] = repr(float(rows[row_index][col]) + delta)
    return fn


def _shift_parabola_value(rows):
    row = rows[1 + 8 * 16]                    # x = 16/33, a boundary point
    value = float(row[1]) + 1e-6
    row[1], row[3] = repr(value), repr(value - float(row[2]))


def _wrong_verdict(out: Output) -> Output:
    meta = dict(out.meta, verdict="BOUNDED")
    return dataclasses.replace(out, stderr="verdict: BOUNDED\n", meta=meta)


def main() -> int:
    if not (SRC / "polyadic" / "cli.py").is_file():
        sys.stderr.write(f"error: no polyadic sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    ops = {w: workloads.build(w, 0, WORK) for w in workloads.WORKLOADS}

    def first(workload, kind, pred=lambda op: True):
        return next(op for op in ops[workload] if op.kind == kind and pred(op))

    cases = [
        (first("tower", "dims"), lambda o: _edit_rows(o, _change_digit), "changed dims digit"),
        (first("tower", "rank"), lambda o: _edit_rows(o, _bump_rank), "rank off by one"),
        (first("tower", "unrank"), lambda o: _edit_rows(o, _bump_rank), "unrank index off by one"),
        (first("tower", "succ"), lambda o: dataclasses.replace(o, text=o.text[::-1]),
         "wrong walk end"),
        (first("tower", "orbit"), lambda o: _edit_rows(o, _repeat_orbit_row),
         "off-by-one orbit word"),
        (first("curve", "cohom"), _wrong_verdict, "wrong verdict"),
        (first("takagi", "takagi", lambda op: op.info.get("classical")),
         lambda o: _edit_rows(o, _perturb(1, 100, 1e-6)), "perturbed classical value"),
        (first("takagi", "takagi", lambda op: not op.info.get("classical")),
         lambda o: _edit_rows(o, _perturb(1, 1 + 128, 1e-3)), "perturbed derivative value"),
        (first("takagi", "parabola"), lambda o: _edit_rows(o, _shift_parabola_value),
         "perturbed parabola boundary value"),
    ]
    checker = Checker()
    bad = 0
    pascal = [op for op in ops["curve"] if op.kind == "curve" and op.info["coeffs"] == (1, 1)]
    for i, op in enumerate(pascal):        # a path that converges, to shift its curve
        if run_op(op, 100 + i).rc == 0:
            cases.append((op, lambda o: _edit_rows(o, _shift_curve), "shifted curve"))
            break
    degenerate = Output(3, "", "error: numerator vanishes on the whole grid\n", None, None)
    cases.append((pascal[0], lambda o: degenerate, "exit 3 without NoConvergence"))
    for i, (op, corrupt, label) in enumerate(cases):
        out = run_op(op, i)
        try:
            checker.check(op, out)
        except CheckFailed as exc:
            print(f"FAIL genuine {op.kind} output rejected: {exc}")
            bad += 1
            continue
        try:
            checker.check(op, corrupt(out))
            print(f"FAIL accepted: {label}")
            bad += 1
        except CheckFailed as exc:
            print(f"ok   rejected: {label} ({exc})")
    shutil.rmtree(WORK, ignore_errors=True)
    print("selftest", "FAILED" if bad else "passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
