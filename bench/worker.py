"""One workload's closed loop, run in a process of its own.

Usage: python3 bench/worker.py SPEC.json RESULT.json

A single client calls ``polyadic.cli.main(argv)`` in-process for each op of
the list in turn, starting the next op only when the previous one returns.
The list repeats until the time budget is spent, with at least one full
pass.  Each op's duration covers the ``main`` call alone; afterwards the
output is fingerprinted, the first pass's output files are kept for the
checkers, and the calibration loop is timed, so that every op lies between
two calibration samples.  With tracing on, per-op layer self times and
counts are recorded.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import calib


def _digest(rc, stdout, stderr, out: Path) -> str:
    h = hashlib.sha256(f"{rc}\0{stdout}\0{stderr}\0".encode())
    for path in (out, out.with_name(out.name + ".meta.json")):
        h.update(path.read_bytes() if path.exists() else b"-")
    return h.hexdigest()


def _out_bytes(stdout, stderr, out: Path) -> int:
    size = len(stdout.encode()) + len(stderr.encode())
    for path in (out, out.with_name(out.name + ".meta.json")):
        if path.exists():
            size += path.stat().st_size
    return size


def run(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    from polyadic import cli

    tracer = None
    if spec["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    workdir = Path(spec["workdir"])
    first = workdir / "pass0"
    later = workdir / "later"
    first.mkdir(parents=True, exist_ok=True)
    later.mkdir(parents=True, exist_ok=True)
    ops = spec["ops"]
    samples = [[] for _ in ops]
    prev_cal = calib.calibrate()

    start = time.perf_counter()
    deadline = start + spec["seconds"]
    sample_no = 0
    passes = 0
    while True:
        for i, argv in enumerate(ops):
            if passes and time.perf_counter() >= deadline:
                break
            out = (first if passes == 0 else later) / f"op{i:03d}.csv"
            for path in (out, out.with_name(out.name + ".meta.json")):
                path.unlink(missing_ok=True)
            so, se = io.StringIO(), io.StringIO()
            if tracer is not None:
                tracer.reset()
                tracer.op = sample_no
                tracer.keep_spans = passes == 0
            error = None
            with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
                t0 = time.perf_counter()
                try:
                    rc = cli.main(argv + ["--out", str(out)])
                except SystemExit as exc:
                    rc = exc.code
                except Exception as exc:       # reported as a failed op
                    rc, error = None, f"{type(exc).__name__}: {exc}"
                t1 = time.perf_counter()
            stdout, stderr = so.getvalue(), se.getvalue()
            if error:
                stderr += f"\nraised {error}"
            sample = {"s": t1 - t0, "rc": rc,
                      "digest": _digest(rc, stdout, stderr, out),
                      "bytes": _out_bytes(stdout, stderr, out)}
            if passes == 0:
                sample["stdout"], sample["stderr"] = stdout, stderr
            if tracer is not None:
                sample["self_s"] = dict(tracer.self_s)
                sample["calls"] = dict(tracer.calls)
                sample["counts"] = dict(tracer.counts)
            cal = calib.calibrate()
            sample["cal"] = (prev_cal, cal)
            prev_cal = cal
            samples[i].append(sample)
            sample_no += 1
        else:
            passes += 1
            continue        # the next pass stops at its first op once time is up
        break
    elapsed = time.perf_counter() - start

    result = {"samples": samples, "passes": passes, "elapsed_s": elapsed,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None and spec.get("spans"):
        path = Path(spec["spans"])
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("id,name,layer,start,end,parent,op\n")
            for span in tracer.spans:
                fh.write(",".join("" if v is None else str(v) for v in span) + "\n")
        result["spans"] = len(tracer.spans)
    return result


def main(argv) -> int:
    spec = json.loads(Path(argv[0]).read_text())
    result = run(spec)
    Path(argv[1]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
