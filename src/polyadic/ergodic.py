"""Cylindric functions, exact tower partial sums, and fluctuation curves.

A rank-N cylindric function sees only the first N letters of a path.  Its
partial sum over a lexicographically ordered tower decomposes into blocks:
for every level j and every letter below the word's letter at j, the block of
words agreeing above j contributes a weighted count of bottom completions.
The weights are the per-vertex sums ``h_l`` of the function, so partial sums
reduce to exact integer combinations that stay meaningful when tower heights
dwarf float range; division by the height happens once, at the very end.

Fluctuation curves normalize ``F(tH) - t F(H)`` by its grid maximum; their
stabilized limits are the Takagi-type curves of the companion module.
"""

from __future__ import annotations

import json
import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product
from operator import add

from .errors import CapacityError, DegenerateCurve, NoConvergence
from .paths import (_check_letters, kappa, letter_table, minimal_word, path_column,
                    prefix_walk, unrank, word_from_string, word_to_string)
from .poly import DimTable, GenPolynomial, PathColumn, _check_words, _count


class CylFunction:
    """Rank-N cylindric function: word of length N -> value, default 0."""

    def __init__(self, N: int, values):
        self.N = _count(N, "N", 1)
        self.values = {}
        for word, val in dict(values).items():
            word = tuple(word)
            _check_letters(word)
            if len(word) != N:
                raise ValueError(f"key {word} does not have length {N}")
            if isinstance(val, bool) or not isinstance(val, numbers.Real):
                raise ValueError(f"value at {word} is not a number: {val!r}")
            if val:
                try:
                    val = float(val)
                except OverflowError:
                    val = math.inf
                if not math.isfinite(val):
                    raise ValueError(f"value at {word} is not finite: {val}")
                self.values[word] = val

    def __call__(self, word) -> float:
        if len(word) < self.N:
            raise ValueError(f"need at least {self.N} letters, got {len(word)}")
        return self.values.get(tuple(word[:self.N]), 0.0)

    @classmethod
    def from_table(cls, poly: GenPolynomial, N: int, fn) -> "CylFunction":
        """Tabulate a callable on all words of length N."""
        r = poly.alphabet_size
        _check_words(r, _count(N, "N", 1), "words exceed tabulation budget")
        return cls(N, {w: fn(w) for w in product(range(r), repeat=N)})

    @classmethod
    def from_json(cls, text: str, poly: GenPolynomial | None = None):
        """Read {"poly": [...], "N": int, "values": {"word": value}}."""
        doc = json.loads(text)
        if not (isinstance(doc, dict) and isinstance(doc.get("poly"), list)
                and type(doc.get("N")) is int and isinstance(doc.get("values"), dict)):
            raise ValueError('a g file is an object with a "poly" list, '
                             'an integer "N" and a "values" object')
        file_poly = GenPolynomial(tuple(doc["poly"]))
        if poly is not None and file_poly != poly:
            raise ValueError(f"file polynomial {file_poly} does not match {poly}")
        values, keys = {}, {}
        for key, val in doc["values"].items():
            word = word_from_string(key, file_poly)
            if word in keys:
                raise ValueError(f"keys {keys[word]!r} and {key!r} name the same word")
            keys[word] = key
            values[word] = val
        # word_from_string has refused every letter outside the file's alphabet
        return file_poly, cls(doc["N"], values)

    def to_json(self, poly: GenPolynomial) -> str:
        values = {word_to_string(w, poly): v for w, v in sorted(self.values.items())}
        return json.dumps({"poly": list(poly.coeffs), "N": self.N,
                           "values": values}, sort_keys=True)


@dataclass(frozen=True)
class HCoeffs:
    """Exact per-vertex sums h_l of a rank-N function over words ending at (N, l)."""

    N: int
    values: tuple[Fraction, ...]


def h_coeffs(g: CylFunction, poly: GenPolynomial) -> HCoeffs:
    s = _dyadic_bits(g.values.values())
    return HCoeffs(g.N, tuple(Fraction(hl, 1 << s) for hl in _scaled_h(g, poly, s)))


def _scaled_h(g: CylFunction, poly: GenPolynomial, s: int) -> list[int]:
    """The integers 2^s h_l, exact sums for s >= _dyadic_bits(g.values.values())."""
    out = [0] * (g.N * poly.degree + 1)
    for word, val in g.values.items():     # kappa refuses a letter outside the alphabet
        out[kappa(word, poly)] += _scaled(val, s)
    return out


def _dyadic_bits(values) -> int:
    """Least s making every 2^s v an integer (exact sums of the v stay so)."""
    return max((v.as_integer_ratio()[1].bit_length() - 1 for v in values), default=0)


def _scaled(v, s: int) -> int:
    """The integer 2^s v, for a float or a dyadic ``Fraction`` v."""
    p, q = v.as_integer_ratio()
    return p << (s + 1 - q.bit_length())


def _to_float(num: int, den: int, what: str, n: int) -> float:
    """num/den, correctly rounded; CapacityError past float range."""
    try:
        return num / den
    except OverflowError:
        raise CapacityError(f"{what} at level {n} exceeds float range") from None


def tower_total(h: HCoeffs, n: int, kap: int, table: DimTable) -> float:
    """F at the full tower height: sum_l h_l C(n-N, kap-l), exactly combined."""
    _count(n, "n", h.N), _count(kap, "kap", None)
    total = sum(hl * table.dim(n - h.N, kap - l) for l, hl in enumerate(h.values))
    return _to_float(total.numerator, total.denominator, "tower total", n)


def _top_blocks(n: int, kap: int, m: int, table: DimTable | PathColumn):
    """Valid top-m letter blocks of the tower at (n, kap), in rank order.

    Returns each block's bottom kappa kb, an iterator over their ranks (then
    H + 1) and the sizes {kb: C(n-m, kb)}.  A block's rank is that of its
    minimal completion, 1 plus the sizes of the blocks before it: a prefix
    sum read from level n - m alone, once per distinct kb.  The m-letter
    drops are listed top letter first, kids in letter order, and a block is
    kept where 0 <= kb <= (n-m)*d, as all are where m*d <= kap <= (n-m)*d.
    That end-level test decides every level: partial drops only grow, so
    kb >= 0 keeps each partial kappa >= 0, and a letter drops at most d, so
    j letters down the kappa is at most kb + (m-j)*d <= (n-j)*d.
    """
    r, d, top = table.poly.alphabet_size, table.poly.degree, (n - m) * table.poly.degree
    _check_words(r, m, "top words exceed grid budget")
    ks, kbs = letter_table(table.poly).kstep, [kap]
    for _ in range(m):
        kbs = [k - s for k in kbs for s in ks]
    if not m * d <= kap <= top:
        kbs = [k for k in kbs if 0 <= k <= top]
    size = {kb: table.dim(n - m, kb) for kb in set(kbs)}
    return kbs, accumulate(map(size.__getitem__, kbs), initial=1), size


def node_grid(n: int, kap: int, m: int, table: DimTable):
    """Minimal completions of all valid top-m blocks, in rank order.

    Returns (top_word, rank, representative_word) triples; the rank fractions
    rank/H approach the coding's stationary points of rank m as n grows along
    a fixed vertex direction.
    """
    _count(n, "n", _count(m, "m")), _count(kap, "kap", None)
    # the word of rank L is its block's minimal completion
    kbs, ranks, _ = _top_blocks(n, kap, m, table)
    return [(w[n - m:], L, w) for _, L in zip(kbs, ranks) for w in [unrank(n, kap, L, table)]]


@dataclass(frozen=True)
class PolygonalCurve:
    """Normalized fluctuation curve: sorted nodes with max |y| = 1.

    Reading rule: at or left of the first node the curve is ys[0]; else, at
    or past the last node it is ys[-1]; in between it interpolates linearly
    after the last node <= x.  So a repeated node reads its last y, except
    at the left end.
    """

    xs: tuple[float, ...]
    ys: tuple[float, ...]
    R: float
    n: int
    kappa: int
    depth: int


def _grid_numerators(g: CylFunction, n: int, kap: int, m: int, table: DimTable | PathColumn):
    """Exact integers 2^s (H*F(L) - L*F(H)), s = _dyadic_bits(g.values.values()).

    Returns (H, [(L, numerator), ...]) in rank order.  Exact numerators make
    'identically zero' decidable and defer all rounding to the normalization.
    A node's rank L = 1 + sum C(n-m, kb) and block sum S = sum Phi(kb), with
    Phi(kb) 2^s g summed over block kb, run over the blocks before it, all at
    level n - m; so H (S + 2^s g(node)) - L FH, FH = 2^s F(H), is a running
    sum of H Phi - FH C plus H 2^s g(node) - FH, each built once per kb.
    """
    N, poly = g.N, table.poly
    _count(n, "n"), _count(kap, "kap", None), _count(m, "m")
    if n - m < N:
        raise ValueError(f"need depth m <= n - N = {n - N}")
    H = table.dim(n, kap)
    if H == 0:
        raise ValueError(f"empty tower at ({n}, {kap})")
    s = _dyadic_bits(g.values.values())
    h = [(l, hl) for l, hl in enumerate(_scaled_h(g, poly, s)) if hl]
    FH = sum(hl * table.dim(n - N, kap - l) for l, hl in h)
    kbs, ranks, size = _top_blocks(n, kap, m, table)
    step, own, below = {}, {}, (n - m - N) * poly.degree
    for kb, C in size.items():
        phi = sum(hl * table.dim(n - m - N, kb - l) for l, hl in h)  # 2^s sum of g
        step[kb] = H * phi - FH * C
        own[kb] = H * _scaled(g(minimal_word(N, max(kb - below, 0), poly)), s) - FH
    sums = accumulate(map(step.__getitem__, kbs), initial=0)
    return H, [*zip(ranks, map(add, sums, map(own.__getitem__, kbs)))]


def _normalizer(g: CylFunction, n: int, kap: int, m: int, table: DimTable | PathColumn):
    """(H, nodes, peak, R_n): the depth-m grid numerators at (n, kap), their largest
    |numerator| and R_n = peak / (2^s H) = max |F(L) - L F(H) / H|, rounded once."""
    H, nodes = _grid_numerators(g, n, kap, m, table)
    peak = max(abs(num) for _, num in nodes)
    return H, nodes, peak, _to_float(peak, H << _dyadic_bits(g.values.values()), "R", n)


def fluctuation_curve(g: CylFunction, n: int, kap: int, m: int,
                      table: DimTable | PathColumn) -> PolygonalCurve:
    """Depth-m polygonal fluctuation curve of the tower at (n, kap)."""
    H, nodes, peak, R = _normalizer(g, n, kap, m, table)
    if peak == 0:
        raise DegenerateCurve(
            f"numerator vanishes on the whole grid at ({n}, {kap}); "
            "the function acts as a constant on this tower")
    xs, ys = [0.0], [0.0]
    for L, num in nodes:
        x = L / H           # exact ints: correctly rounded even past 2**53
        if x <= xs[-1]:
            continue
        xs.append(x)
        ys.append(num / peak)
    if xs[-1] < 1.0:
        xs.append(1.0)
        ys.append(0.0)
    return PolygonalCurve(tuple(xs), tuple(ys), R, n, kap, m)


def curve_value(curve: PolygonalCurve, x: float) -> float:
    """Value of the curve at x, by the reading rule of PolygonalCurve."""
    xs, ys = curve.xs, curve.ys
    if math.isnan(x):               # bisect_right would put it past the end
        return math.nan
    if x <= xs[0]:
        return ys[0]
    if x >= xs[-1]:
        return ys[-1]
    hi = bisect_right(xs, x)
    lo = hi - 1
    w = (x - xs[lo]) / (xs[hi] - xs[lo])
    return ys[lo] * (1.0 - w) + ys[hi] * w


def _gap(a: PolygonalCurve, b: PolygonalCurve) -> float:
    """Largest |a - b| over a's own nodes, both read by PolygonalCurve's rule.

    a is read at its own nodes; b by one forward walk over its nodes.
    """
    axs, ays, bxs, bys = a.xs, a.ys, b.xs, b.ys
    left, first, last = axs[0], bxs[0], bxs[-1]
    j, sup = 0, 0.0             # b's last node <= x, once x is inside its span
    for x, nxt, y in zip(axs, axs[1:] + (math.inf,), ays):
        if nxt == x:            # a repeated node reads its last y
            continue
        if x == left:
            y = ays[0]
        if x <= first:
            v = bys[0]
        elif x >= last:
            v = bys[-1]
        else:
            while bxs[j + 1] <= x:
                j += 1
            w = (x - bxs[j]) / (bxs[j + 1] - bxs[j])
            v = bys[j] * (1.0 - w) + bys[j + 1] * w
        gap = abs(y - v)
        if gap > sup:
            sup = gap
    return sup


def sup_distance(c1: PolygonalCurve, c2: PolygonalCurve) -> float:
    """Sup-metric distance of two polygonal curves on the union of their nodes.

    Every node of the union is a node of one curve or the other, so the
    larger one-sided gap is the union's sup; each curve is read as
    PolygonalCurve states.
    """
    return max(_gap(c1, c2), _gap(c2, c1))


def _stabilizing_levels(x, table: DimTable | PathColumn, eps: float, delta: float, n_max: int):
    """Yield (n, kappa_n) at each stabilizing level of the prefix up to n_max.

    A level qualifies when the prefix sits low in its tower, rank/H < eps,
    and its vertex is central, delta <= kappa/(n d) <= 1 - delta.  Both tests
    are exact: they cross-multiply integers, eps and delta read once as
    integer ratios.  At degree 0 the vertex test reads 0 <= 0 <= 0: no branch.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError("need 0 < eps <= 1")
    if not 0.0 <= delta < 0.25:
        raise ValueError("need 0 <= delta < 1/4")
    d = table.poly.degree
    e, e_den = eps.as_integer_ratio()
    c, c_den = delta.as_integer_ratio()
    for n, kap, rnk in prefix_walk(x, table, n_max):
        if (rnk * e_den < e * table.dim(n, kap)
                and c * n * d <= kap * c_den <= (c_den - c) * n * d):
            yield n, kap


def measure_ray(mp, n: int) -> int:
    """Vertex the measure concentrates on at level n: round(n * E[step])."""
    ks = letter_table(mp.poly).kstep
    mean = sum(w * s for w, s in zip(mp.weights, ks))
    return math.floor(_count(n, "n") * mean + 0.5)


def extract_limiting_curve(g: CylFunction, x, poly: GenPolynomial, *, eps: float = 0.1,
                           delta: float = 0.1, m: int = 6, tol: float = 0.05,
                           n_max: int = 300, mp=None, align: int = 1):
    """Walk stabilizing levels until consecutive curves agree within tol.

    Returns (curve, diagnostics); diagnostics carries the candidate levels
    and the sup-distance series whether or not it converged.  Failure to
    drop below tol raises NoConvergence with the same series attached.  The
    walk reads exact dimensions from a PathColumn along x.

    When the sampling measure ``mp`` is given, the walk keeps only the
    candidate levels whose vertex revisits the measure's typical ray (within
    ``align``).  The centered vertex walk is recurrent, so such levels keep
    coming for almost every sampled path, and along them the depth-m curves
    approach the limit without the square-root-scale vertex tilt that a free
    vertex carries at moderate n.
    """
    if not tol >= 0:            # NaN fails too
        raise ValueError("need tol >= 0")
    if mp is not None and mp.poly != poly:
        raise ValueError(f"measure polynomial {mp.poly} does not match {poly}")
    _count(m, "m"), _count(n_max, "n_max"), _count(align, "align")
    diagnostics = {"levels": [], "distances": []}
    prev = None
    # A curve at level n reads levels n-m-N..n within (m+N)*d of the path.
    column = path_column(x, poly, m + g.N)
    for n, kap in _stabilizing_levels(x, column, eps, delta, n_max):
        if n - m < g.N or (mp is not None and abs(kap - measure_ray(mp, n)) > align):
            continue
        curve = fluctuation_curve(g, n, kap, m, column)
        diagnostics["levels"].append(n)
        if prev is not None:
            dist = sup_distance(prev, curve)
            diagnostics["distances"].append(dist)
            if dist < tol:
                diagnostics["converged_at"] = n
                return curve, diagnostics
        prev = curve
    raise NoConvergence(
        f"no consecutive pair below tol={tol} among "
        f"{len(diagnostics['levels'])} candidate levels",
        distances=diagnostics["distances"])


def central_vertex(table: DimTable, n: int) -> int:
    """Vertex index maximizing the dimension at level n (lowest on ties)."""
    row = table.row(_count(n, "n"))
    return row.index(max(row))


def cohomology_verdict(g: CylFunction, table: DimTable, n_max: int, m: int = 4):
    """Classify the growth of the normalizing coefficients along the ridge.

    Returns (verdict, series) with verdict BOUNDED, UNBOUNDED or
    INCONCLUSIVE and series the list of (n, R_n) pairs, R_n taken at depth
    min(m, n - N) over the dimension-maximizing vertex.  Bounded growth of
    R is the numerical face of the function being cohomologous to a
    constant; the verdict is a diagnostic, not a proof.
    """
    N = g.N
    _count(n_max, "n_max", N), _count(m, "m")
    table.extend(n_max)     # refused before level 1 is built, then built at once
    series = [(n, _normalizer(g, n, central_vertex(table, n), min(m, n - N), table)[3])
              for n in range(N, n_max + 1)]
    values = [v for _, v in series]
    peak = max(values)
    tail = values[len(values) // 2:]
    if peak == 0.0 or max(tail) - min(tail) <= 1e-9 * peak:
        return "BOUNDED", series
    nondecreasing = all(b >= a * (1.0 - 1e-12) for a, b in zip(tail, tail[1:]))
    if nondecreasing and tail[-1] - tail[0] > 1e-9 * peak:
        return "UNBOUNDED", series
    return "INCONCLUSIVE", series
