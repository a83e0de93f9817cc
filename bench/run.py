"""Benchmark of the polyadic CLI: one workload per invocation.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {tower,curve,takagi} --seed N \\
        --seconds S --trace {0,1}

The workload's op list is generated from the seed, set-up time is measured
in fresh interpreters, and the closed loop runs in a worker process of its
own (``worker.py``) for S seconds.  Every op's output is then checked
(``checks.py``).  The last line of standard output is one JSON object with
the end-to-end metrics (``--trace 0``) or the per-layer metrics of a traced
run (``--trace 1``); the lines before it print every metric and diagnostic
by name with its unit.

Op times are reported at a fixed reference host speed: each measured
duration is scaled by CAL_REF_S over the mean of the calibration times taken
just before and just after it (``calib.py``).  The raw sums are printed too.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import workloads
from checks import CURVE_TOL, CheckFailed, Checker, Output

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
CAL_REF_S = 0.003         # calibration time that defines the reference speed
SETUP_REPEATS = 10
WORKER_TIMEOUT_S = 150
SETUP_CODE = ("import contextlib, os\n"
              "with open(os.devnull, 'w') as fh, contextlib.redirect_stdout(fh):\n"
              "    from polyadic import cli\n"
              "    try:\n"
              "        cli.main(['--help'])\n"
              "    except SystemExit:\n"
              "        pass\n")

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_s", "s"),
              ("op_tail_s", "s"), ("peak_rss_mb", "MB"))
LAYERS = ("cli", "poly", "paths", "measure", "ergodic", "takagi")
PER_LAYER = tuple((f"{layer}.{kind}", unit) for layer in LAYERS
                  for kind, unit in (("calls", "count"), ("self_s", "s"))) + (
    ("poly.entries_built", "count"), ("poly.dim_calls", "count"),
    ("ergodic.curves_built", "count"), ("ergodic.nodes", "count"),
    ("ergodic.curve_yield", "ratio"), ("cli.bytes_out", "bytes"),
    ("trace.overhead_s", "s"), ("host.calib_s", "s"))


def _scaled(seconds: float, cal) -> float:
    """A duration at the reference speed, given the calibrations around it."""
    return seconds * 2 * CAL_REF_S / (cal[0] + cal[1])


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(repeats: int) -> list[float]:
    """Times from interpreter start until cli is imported and its parser built.

    Not scaled to the reference speed: process start and imports did not
    follow the calibration loop (scaling widened the spread between runs).
    """
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=_env(), check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def run_worker(workdir: Path, ops, seconds: float, trace: bool, spans=None) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    spec = {"src": str(SRC), "ops": [op.argv for op in ops], "seconds": seconds,
            "trace": trace, "workdir": str(workdir),
            "spans": str(spans) if spans else None}
    spec_path, result_path = workdir / "spec.json", workdir / "result.json"
    spec_path.write_text(json.dumps(spec))
    subprocess.run([sys.executable, str(BENCH / "worker.py"), str(spec_path),
                    str(result_path)], env=_env(), check=True,
                   stdin=subprocess.DEVNULL, timeout=WORKER_TIMEOUT_S)
    return json.loads(result_path.read_text())


def _first_output(workdir: Path, i: int, sample: dict) -> Output:
    out = workdir / "pass0" / f"op{i:03d}.csv"
    meta = out.with_name(out.name + ".meta.json")
    return Output(rc=sample["rc"], stdout=sample["stdout"], stderr=sample["stderr"],
                  text=out.read_text() if out.exists() else None,
                  meta=json.loads(meta.read_text()) if meta.exists() else None)


def check_outputs(ops, workdir: Path, results):
    """Check each op's first output; later samples must reproduce it exactly.

    Returns per-op check info, attempted and failed sample counts, and the
    failure messages.
    """
    checker = Checker()
    infos, problems = [], []
    attempted = failed = 0
    for i, op in enumerate(ops):
        first = results[0]["samples"][i][0]
        label = f"op {i} ({' '.join(op.argv[:3])})"
        try:
            info, ok = checker.check(op, _first_output(workdir, i, first)), True
        except CheckFailed as exc:
            info, ok = {}, False
            problems.append(f"{label}: {exc}")
        except Exception as exc:         # a malformed output fails its op
            info, ok = {}, False
            problems.append(f"{label}: {type(exc).__name__}: {exc}")
        infos.append(info)
        same = [s["digest"] == first["digest"] for r in results for s in r["samples"][i]]
        attempted += len(same)
        failed += len(same) if not ok else same.count(False)
        if ok and not all(same):
            problems.append(f"{label}: output differs between repetitions")
    return infos, attempted, failed, problems


def _slot_medians(result, key):
    return [statistics.median(key(s) for s in samples) for samples in result["samples"]]


def timing_metrics(result) -> dict:
    med = _slot_medians(result, lambda s: _scaled(s["s"], s["cal"]))
    ordered = sorted(med)
    k = len(ordered)
    tail = max(k - 11, 0)               # the op with 10 ops beyond it
    return {"wall_s": sum(med), "op_p50_s": statistics.median(med),
            "op_tail_s": ordered[tail], "tail_pct": 100.0 * (tail + 1) / k, "ops": k,
            "samples": sum(len(s) for s in result["samples"]),
            "raw_wall_s": sum(_slot_medians(result, lambda s: s["s"]))}


def layer_metrics(traced, untraced, infos) -> dict:
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(_slot_medians(
            traced, lambda s, layer=layer: _scaled(s["self_s"][layer], s["cal"])))
        out[f"{layer}.calls"] = sum(samples[0]["calls"].get(layer, 0)
                                    for samples in traced["samples"])
    for name in ("poly.entries_built", "poly.dim_calls", "ergodic.curves_built",
                 "ergodic.nodes"):
        out[name] = sum(samples[0]["counts"].get(name, 0) for samples in traced["samples"])
    converged = sum(1 for info in infos if info.get("converged"))
    built = out["ergodic.curves_built"]
    out["ergodic.curve_yield"] = converged / built if built else 0.0
    out["cli.bytes_out"] = sum(samples[0]["bytes"] for samples in traced["samples"])
    out["trace.overhead_s"] = (timing_metrics(traced)["wall_s"]
                               - timing_metrics(untraced)["wall_s"])
    return out


def _row(name, value, unit, note=""):
    print(f"{name:24s} {value!r:>24} {unit:6s} {note}".rstrip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "polyadic" / "cli.py").is_file():
        sys.stderr.write(f"error: no polyadic sources under {SRC}; "
                         "run from the root of a full checkout\n")
        return 2
    sys.path.insert(0, str(SRC))     # the curve and takagi checks use the library

    rundir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    try:
        inputs = rundir / "inputs"
        inputs.mkdir(parents=True)
        ops = workloads.build(args.workload, args.seed, inputs)
        if args.trace:
            half = args.seconds / 2
            untraced = run_worker(rundir / "plain", ops, half, False)
            spans = OUT / "spans" / f"{args.workload}-seed{args.seed}.csv.gz"
            traced = run_worker(rundir / "traced", ops, half, True, spans)
            results = [untraced, traced]
        else:
            # Half the set-up samples before the loop and half after, so that
            # their median spans the run's host-speed drift.
            setup = measure_setup(SETUP_REPEATS // 2)
            untraced = run_worker(rundir / "plain", ops, args.seconds, False)
            setup += measure_setup(SETUP_REPEATS - SETUP_REPEATS // 2)
            results = [untraced]
        t_check = time.perf_counter()
        infos, attempted, failed, problems = check_outputs(ops, rundir / "plain", results)
        t_check = time.perf_counter() - t_check
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    timing = timing_metrics(untraced)
    print(f"workload {args.workload} seed {args.seed}: {timing['ops']} ops, "
          f"{timing['samples']} timed samples ({untraced['passes']} full passes) "
          f"in {untraced['elapsed_s']:.1f} s; checks took {t_check:.1f} s")
    for msg in problems:
        print(f"FAILED {msg}")
    _row("fail_frac", failed / attempted, "ratio", f"{failed}/{attempted} samples")
    curves = [info for op, info in zip(ops, infos) if op.kind == "curve"]
    if curves:
        within = sum(1 for info in curves if info.get("within"))
        dists = [info["ref_dist"] for info in curves if info.get("converged")]
        _row("converged_frac", within / len(curves), "ratio",
             f"{within} of {len(curves)} curve ops converged within "
             f"{CURVE_TOL} of the reference")
        _row("ref_dist_p50", statistics.median(dists) if dists else float("nan"),
             "1", f"over {len(dists)} converged curves, on the checked node subset")
    cals = [s["cal"][1] for r in results for samples in r["samples"] for s in samples]
    calib_s = statistics.median(cals)
    quart = statistics.quantiles(cals, n=4)
    _row("host.calib_s", calib_s, "s", f"diagnostic: median of {len(cals)} calibrations, "
         f"quartiles {quart[0]:.5f} {quart[2]:.5f}; reference {CAL_REF_S}")

    if args.trace:
        traced = results[1]
        values = layer_metrics(traced, untraced, infos)
        values["host.calib_s"] = calib_s
        traced_wall = timing_metrics(traced)["wall_s"]
        self_sum = sum(values[f"{layer}.self_s"] for layer in LAYERS)
        for name, unit in PER_LAYER:
            if name != "host.calib_s":                  # printed above
                _row(name, values[name], unit)
        _row("trace.self_share", self_sum / traced_wall, "ratio",
             f"layer self times / traced wall_s {traced_wall:.4f} s "
             f"(untraced {timing['wall_s']:.4f} s); {traced.get('spans', 0)} spans "
             f"of the first traced pass in {spans.relative_to(ROOT)}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        values = dict(timing, peak_rss_mb=untraced["peak_rss_mb"],
                      setup_s=statistics.median(setup))
        notes = {"setup_s": f"median of {SETUP_REPEATS} fresh interpreters, not scaled",
                 "wall_s": f"sum of per-op medians (raw {timing['raw_wall_s']:.4f} s)",
                 "op_tail_s": f"p{timing['tail_pct']:.1f} of {timing['ops']} ops "
                              f"(10 beyond), {timing['samples']} samples"}
        for name, unit in END_TO_END:
            _row(name, values[name], unit, notes.get(name, ""))
        _row("cli.bytes_out", sum(s[0]["bytes"] for s in untraced["samples"]), "bytes",
             "per pass")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
