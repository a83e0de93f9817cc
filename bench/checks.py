"""Output checkers, one per op kind; each runs after the op's timer stops.

A checker receives the op and what the op produced (exit code, captured
stdout/stderr, the ``--out`` file and its ``.meta.json`` sidecar) and raises
``CheckFailed`` on the first defect.  Exact outputs are compared against the
independent arithmetic in ``oracle``; float outputs against the acceptance
suite's oracles (classical Takagi values, centered differences of the coding
map, the parabola boundary identity, the A7/A8 curve protocol).  Checks that
would cost more than the op itself run on a fixed subset of points.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction

from oracle import Tower, classical_takagi, encode

CURVE_TOL = 0.05          # --tol of the curve walk and the A7/A8 distance bound
SUBSET = 33               # evenly spaced points checked on long float outputs


class CheckFailed(Exception):
    pass


@dataclass
class Output:
    rc: object            # exit code, or None when main raised
    stdout: str
    stderr: str
    text: str | None      # contents of the --out file, if written
    meta: dict | None     # parsed .meta.json sidecar, if written


def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def _rows(out: Output, header):
    _require(out.rc == 0, f"exit code {out.rc}: {out.stderr.strip()[:200]}")
    _require(out.text is not None, "no output file")
    rows = list(csv.reader(io.StringIO(out.text)))
    _require(rows and rows[0] == list(header), f"header {rows[:1]} != {list(header)}")
    return rows[1:]


def _subset(n: int) -> list[int]:
    return sorted({round(i * (n - 1) / (SUBSET - 1)) for i in range(SUBSET)})


class Checker:
    """Holds the oracle tables shared by the checks of one run."""

    def __init__(self):
        self._towers = {}

    def tower(self, coeffs, n_max: int) -> Tower:
        key = tuple(coeffs)
        t = self._towers.get(key)
        if t is None or len(t.rows) <= n_max:
            t = self._towers[key] = Tower(key, n_max)
        return t

    def check(self, op, out: Output) -> dict:
        """Raise CheckFailed on a defect; return what the metrics need."""
        return getattr(self, "_" + op.kind)(op, out) or {}

    # -- tower ---------------------------------------------------------------

    def _dims(self, op, out):
        rows = _rows(out, ("n", "k", "dim"))
        nmax = op.info["nmax"]
        t = self.tower(op.info["coeffs"], nmax)
        expect = [[str(n), str(k), str(v)]
                  for n in range(nmax + 1) for k, v in enumerate(t.rows[n])]
        _require(len(rows) == len(expect), f"{len(rows)} rows, expected {len(expect)}")
        for got, want in zip(rows, expect):
            _require(got == want, f"row {got} != {want}")

    def _rank_row(self, out, n):
        rows = _rows(out, ("word", "n", "kappa", "rank", "dim"))
        _require(len(rows) == 1, f"{len(rows)} rows")
        word, n_s, kap_s, rank_s, dim_s = rows[0]
        _require(len(word) == n and n_s == str(n), f"word length {len(word)} != {n}")
        return tuple(int(c) for c in word), int(kap_s), int(rank_s), int(dim_s)

    def _rank(self, op, out):
        word = op.info["word"]
        t = self.tower(op.info["coeffs"], len(word))
        got, kap, rnk, dim = self._rank_row(out, len(word))
        _require(got == word, "word not echoed")
        _require(kap == t.kappa(word), f"kappa {kap} != {t.kappa(word)}")
        _require(rnk == t.rank(word), "rank differs from the oracle")
        _require(dim == t.dim(len(word), kap), "dim differs from the oracle")

    def _unrank(self, op, out):
        n, kap, index = op.info["n"], op.info["kappa"], op.info["index"]
        t = self.tower(op.info["coeffs"], n)
        word, kap_out, rnk, dim = self._rank_row(out, n)
        _require(all(0 <= c < len(t.steps) for c in word), "letter out of range")
        _require(kap_out == kap and t.kappa(word) == kap, "word leaves the vertex")
        _require(rnk == index and t.rank(word) == index, "unrank does not invert rank")
        _require(dim == t.dim(n, kap), "dim differs from the oracle")

    def _succ(self, op, out):
        _require(out.rc == 0, f"exit code {out.rc}: {out.stderr.strip()[:200]}")
        _require(out.text == op.info["expect"] + "\n",
                 "walk does not end at the oracle's word")

    def _orbit(self, op, out):
        rows = _rows(out, ("step", "theta", "word"))
        steps, q = op.info["steps"], op.info["q"]
        _require(len(rows) == steps + 1, f"{len(rows)} rows, expected {steps + 1}")
        words = [tuple(int(c) for c in w) for _, _, w in rows]
        _require(len(words[0]) == op.info["n"], "first word has the wrong length")
        t = self.tower(op.info["coeffs"], max(len(w) for w in words))
        weights = (1.0 - q, q)        # Pascal system: t_q = 1 - q
        for i, (step, theta, _) in enumerate(rows):
            _require(step == str(i), f"step column {step} at row {i}")
            _require(abs(float(theta) - encode(weights, words[i])) <= 1e-12,
                     f"theta at step {i} is not the coding of the word")
            if i:
                _require(t.is_successor(words[i - 1], words[i]),
                         f"word at step {i} is not the successor of step {i - 1}")
        meta = out.meta or {}
        _require(meta.get("q") == q and meta.get("poly") == list(op.info["coeffs"]),
                 "meta does not echo the arguments")

    # -- curve ---------------------------------------------------------------

    def _curve(self, op, out):
        if out.rc == 3:
            # NoConvergence is an outcome of the protocol, not a failure.
            _require(out.stderr.startswith("error: no consecutive pair below tol"),
                     f"exit 3 without NoConvergence: {out.stderr.strip()[:200]}")
            return {"converged": False}
        rows = _rows(out, ("x", "y"))
        xs = [float(x) for x, _ in rows]
        ys = [float(y) for _, y in rows]
        meta = out.meta or {}
        coeffs, q, gvals = op.info["coeffs"], op.info["q"], op.info["gvals"]
        n, kap, m = meta.get("n"), meta.get("kappa"), meta.get("m")
        levels, dists = meta.get("levels", []), meta.get("distances", [])
        _require(m == 6 and meta.get("converged_at") == n and levels and levels[-1] == n,
                 "meta does not describe the converged level")
        _require(all(a < b for a, b in zip(levels, levels[1:])), "levels not increasing")
        _require(len(dists) == len(levels) - 1 and dists[-1] < CURVE_TOL
                 and all(v >= CURVE_TOL for v in dists[:-1]),
                 "distance series does not stop at the first pair below tol")
        d = len(coeffs) - 1
        _require(isinstance(kap, int) and 0 <= kap <= n * d, "kappa outside the level")
        _require(xs[0] == 0.0 and ys[0] == 0.0 and xs[-1] == 1.0 and ys[-1] == 0.0,
                 "curve does not run from (0,0) to (1,0)")
        _require(max(abs(y) for y in ys) == 1.0, "curve is not normalized to max |y| = 1")

        t = self.tower(coeffs, n)
        H = t.dim(n, kap)
        nodes = t.grid_nodes(n, kap, m)
        own_x, own = [0.0], [None]
        for L, rem, u in nodes:
            x = L / H
            if x > own_x[-1]:
                own_x.append(x)
                own.append((L, rem, u))
        if own_x[-1] < 1.0:
            own_x.append(1.0)
            own.append(None)
        _require(xs == own_x, "node positions differ from the oracle's grid")

        # Exact values on a fixed subset of nodes, scaled by the reported R.
        R = Fraction(meta["R"])
        total = t.rank1_block_sum(gvals, n, kap)
        peak = max(range(len(ys)), key=lambda i: abs(ys[i]))
        subset = sorted(set(_subset(len(xs))) | {peak})
        for i in subset:
            if own[i] is None:
                continue
            L, rem, u = own[i]
            word = t.unrank(n - m, rem, 1) + u
            num = H * t.partial_sum(gvals, word) - L * total
            _require(abs(ys[i] - float(Fraction(num, H) / R)) <= 1e-9,
                     f"curve value at node {i} differs from the exact partial sum")

        # A7/A8 protocol: sign-aligned sup distance to the normalized k=1
        # Takagi curve, here on the same node subset.
        from polyadic import GenPolynomial, takagi_function
        poly = GenPolynomial(coeffs)
        ref = [takagi_function(poly, q, 1, xs[i]) for i in subset]
        scale = max(abs(v) for v in ref)
        got = [ys[i] for i in subset]
        dist = min(max(abs(a - b / scale) for a, b in zip(got, ref)),
                   max(abs(a + b / scale) for a, b in zip(got, ref)))
        return {"converged": True, "ref_dist": dist, "within": dist < CURVE_TOL}

    def _cohom(self, op, out):
        rows = _rows(out, ("n", "R"))
        verdict, nmax, N = op.info["verdict"], op.info["nmax"], op.info["N"]
        _require(out.stderr == f"verdict: {verdict}\n", f"stderr {out.stderr!r}")
        _require((out.meta or {}).get("verdict") == verdict, "meta verdict differs")
        _require([int(r[0]) for r in rows] == list(range(N, nmax + 1)), "levels column")
        values = [float(r[1]) for r in rows]
        _require(all(math.isfinite(v) and v >= 0.0 for v in values), "R not finite")
        tail = values[len(values) // 2:]
        if verdict == "BOUNDED":
            _require(max(tail) - min(tail) <= 1e-9 * max(values), "tail not flat")
        else:
            _require(all(b >= a * (1.0 - 1e-12) for a, b in zip(tail, tail[1:]))
                     and tail[-1] > tail[0], "tail not growing")

    # -- takagi --------------------------------------------------------------

    def _takagi(self, op, out):
        from polyadic import GenPolynomial, coding_map
        from polyadic.takagi import MIRROR_SIGN
        rows = _rows(out, ("x", "value"))
        grid, q, k = op.info["grid"], op.info["q"], op.info["k"]
        _require(len(rows) == grid + 1, f"{len(rows)} rows")
        xs = [float(x) for x, _ in rows]
        vs = [float(v) for _, v in rows]
        _require(xs == [i / grid for i in range(grid + 1)], "x column is not the grid")
        _require(all(math.isfinite(v) for v in vs), "non-finite value")
        if op.info.get("classical"):
            for x, v in zip(xs, vs):
                _require(abs(MIRROR_SIGN * 0.5 * v - classical_takagi(x)) <= 1e-9,
                         f"value at x={x} differs from the classical Takagi curve")
            return
        poly = GenPolynomial(op.info["coeffs"])
        for i in _subset(len(xs)):
            x = xs[i]

            def f(q2):
                return coding_map(poly, q, q2, x)

            if k == 1:
                h = 1e-5
                fd = (f(q + h) - f(q - h)) / (2 * h)
                tol = 1e-4
            else:   # k == 3
                h = 1e-3
                fd = (f(q + 2 * h) - 2 * f(q + h) + 2 * f(q - h) - f(q - 2 * h)) / (2 * h ** 3)
                tol = 1e-3 * max(1.0, abs(vs[i]))
            _require(abs(vs[i] - fd) <= tol,
                     f"value at x={x} differs from centered differences of coding_map")

    def _parabola(self, op, out):
        rows = _rows(out, ("x", "value", "parabola", "deviation"))
        d, grid = op.info["d"], op.info["grid"]
        _require(len(rows) == grid + 1, f"{len(rows)} rows")
        stride = grid // (d + 1)
        for i, row in enumerate(rows):
            x, v, p, dev = (float(c) for c in row)
            _require(x == i / grid and p == x * (1.0 - x) and dev == v - p,
                     f"row {i} is inconsistent")
            if i % stride == 0:
                a = (i // stride) / (d + 1)
                _require(abs(v - a * (1 - a) * (d + 1) / d) <= 1e-9,
                         f"boundary identity fails at {i // stride}/{d + 1}")
