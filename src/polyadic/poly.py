"""Generating polynomials and exact tables of generalized binomial coefficients.

The coefficient table holds ``C(n, k)``, the coefficient of ``x^k`` in
``p(x)^n``, for a polynomial ``p`` with positive integer coefficients.  Entry
``(n, k)`` counts the paths from the root to vertex ``(n, k)`` of the graded
graph generated by ``p``, so everything downstream (ranking, measures, curve
extraction) leans on these integers being exact.  Four row sources answer
``dim(n, k)``: ``DimTable`` holds dense rows, and alone returns ``row(n)``;
``PathColumn`` the entries near one path's vertices, all that ranking and
curve extraction along that path read; for unranking at one vertex,
``VertexCone`` the vertices on some path up to it, or ``VertexDescent`` a few
entries a level on the walk down from it, whichever ``vertex_source`` finds
builds fewer.  Each ``dim`` raises ValueError at a negative level, is zero
for k outside [0, n*d], and in a stand-in raises KeyError where no entry is
held or a read passes a record's reach.  ``_next_level`` builds a level from
the one below; a descent builds it from the one above by a Bezout identity
of p and p', so p must have no repeated root.  Column and descent share one
level store, ``_LevelStore``, of runs widened by the row recurrence
``_sideways``; a cone's level is a band packed into one integer.  Every build
is counted before it starts, and refused past the budgets, by one gate,
``_admit``, and every count a public call takes is checked by one other, ``_count``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from operator import add, mul

from .errors import CapacityError

DEFAULT_ENTRY_BUDGET = 4_000_000
# Bits a build above the dense table's reach may hold: an entry at level L has
# up to L*log2(p(1)) bits, so counting entries alone does not bound memory.
_BIT_BUDGET = 64 * DEFAULT_ENTRY_BUDGET
# Levels a packed cone band may grow before its entries are measured and
# repacked: a level's entries, and every partial sum of its convolution, have
# at most bitlen(p(1)) bits more than the largest entry of the level below.
_REPACK_LEVELS = 32
# Words a tabulation, curve grid or sweep may enumerate: r^m for r letters.
_WORD_BUDGET = 2_000_000


@dataclass(frozen=True)
class GenPolynomial:
    """Polynomial a_0 + a_1 x + ... + a_d x^d with positive integer coefficients."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if any(isinstance(a, bool) or not isinstance(a, int) for a in coeffs):
            raise ValueError(f"coefficients must be integers, got {coeffs!r}")
        if not coeffs:
            raise ValueError("at least one coefficient is required")
        if any(a < 1 for a in coeffs):
            raise ValueError("all coefficients must be positive integers")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def alphabet_size(self) -> int:
        """Number of edges into any vertex: p(1)."""
        return sum(self.coeffs)

    @classmethod
    def parse(cls, text: str) -> "GenPolynomial":
        """Build from a comma-separated coefficient list such as ``"1,1,3"``.

        Each field, stripped of surrounding whitespace, must be a nonempty run
        of ASCII digits.
        """
        parts = [p.strip() for p in text.split(",")]
        if all(p.isascii() and p.isdigit() for p in parts):
            try:
                return cls(tuple(int(p) for p in parts))
            except ValueError:
                pass
        raise ValueError(f"bad coefficient list {text!r}")

    def __str__(self) -> str:
        return ",".join(str(a) for a in self.coeffs)


def _count(value, name: str, lo: int | None = 0) -> int:
    """``value`` if it is an int, not a bool, and at least ``lo`` (any int for None);
    else a ValueError naming it by ``name``."""
    if type(value) is int and (lo is None or value >= lo):
        return value
    floor = "" if lo is None else f" >= {lo}"
    raise ValueError(f"{name} must be an integer{floor}, got {value!r}")


def _check_poly(poly) -> GenPolynomial:
    """``poly`` itself; a ValueError naming it if it is not a GenPolynomial."""
    if not isinstance(poly, GenPolynomial):
        raise ValueError(f"expected a GenPolynomial, got {poly!r}")
    return poly


def _next_level(a, n, prev_lo, prev, lo, hi) -> list[int]:
    """C(n, lo..hi) for coefficients ``a``, from level n - 1's ``prev``.

    ``prev`` holds C(n-1, k) in k order from ``prev_lo`` on (a window, or the
    whole row).  Convolution, C(n, k) = sum_j a_j C(n-1, k-j), gives the
    entries whose C(n-1, k-j) are held.  The zeros past an end of level n - 1
    count as held, padded on only where ``prev`` reaches that end: a whole
    row gives all of [0, n*d].  ``_sideways`` gives the other ends.  Each
    tap is one ``map``, summed in j order, with products only where a_j > 1.
    """
    d = len(a) - 1
    lead = d if prev_lo == 0 else 0
    tail = d if prev_lo + len(prev) - 1 == (n - 1) * d else 0
    if lead or tail:
        prev, prev_lo = [*(0,) * lead, *prev, *(0,) * tail], prev_lo - lead
    start, stop = max(lo, prev_lo + d), min(hi, prev_lo + len(prev) - 1)
    i0, i1 = start - prev_lo, stop - prev_lo + 1
    vals = [*prev[i0:i1]] if a[0] == 1 else [*map(mul, prev[i0:i1], repeat(a[0]))]
    for j in range(1, d + 1):
        taps = prev[i0 - j:i1 - j]
        vals = [*map(add, vals, taps if a[j] == 1 else map(mul, taps, repeat(a[j])))]
    return _sideways(a, n, start, vals, lo, hi)


def _sideways(a, n, start, vals, lo, hi) -> list[int]:
    """C(n, lo..hi) from the run C(n, start..) held in ``vals``, lo <= start.

    The run is widened in place by the recurrence p y' = n p' y gives for
    y = p^n,
        a_0 k C(n, k) = sum_{j=1..d} a_j ((n+1) j - k) C(n, k-j),
    run forwards at the right end and solved for its j = d term at the left
    end; C(n, k) is zero for k < 0.  The run must hold d entries, or start
    at 0.  Both divisions are exact.
    """
    d, n1 = len(a) - 1, n + 1
    for k in range(start + len(vals), hi + 1):
        num, i = 0, k - start
        for j in range(1, min(k, d) + 1):
            num += a[j] * (n1 * j - k) * vals[i - j]
        vals.append(num // (a[0] * k))
    for k in range(start - 1 + d, lo - 1 + d, -1):
        # vals[0] is C(n, start); solve for C(n, k - d) and put it first
        num, i = a[0] * k * vals[k - start], k - start
        for j in range(1, d):
            num -= a[j] * (n1 * j - k) * vals[i - j]
        vals.insert(0, num // (a[d] * (n1 * d - k)))
        start -= 1
    return vals


class DimTable:
    """Dense per-level rows of exact vertex dimensions C(n, k).

    The table grows on demand: asking :meth:`row` or :meth:`dim` for a level
    above ``n_max`` first builds the missing levels, as ``_admit`` allows,
    each by ``_next_level`` over the whole window [0, n*d].
    Rows are append-only tuples: existing entries never change, so concurrent
    readers are safe once a level is built.
    """

    def __init__(self, poly: GenPolynomial, n_max: int = 0):
        self.poly = _check_poly(poly)
        self._rows: list[tuple[int, ...]] = [(1,)]
        self.extend(n_max)

    @property
    def n_max(self) -> int:
        return len(self._rows) - 1

    def admit(self, n_max: int) -> None:
        """Refuse, before any level is built, a table to ``n_max`` past the entry budget."""
        d, n_max = self.poly.degree, _count(n_max, "n_max")
        _admit(f"table with n_max={n_max}, degree={d}", _table_entries(d, n_max))

    def extend(self, n_max: int) -> None:
        """Grow the table so that all levels up to ``n_max`` are present."""
        self.admit(n_max)
        a, d = self.poly.coeffs, self.poly.degree
        for n in range(len(self._rows), n_max + 1):
            self._rows.append(tuple(_next_level(a, n, 0, self._rows[-1], 0, n * d)))

    def row(self, n: int) -> tuple[int, ...]:
        """Level n's entries C(n, 0..n*d), building the table up to n first."""
        if type(n) is not int:
            _count(n, "n")
        return self._row(n)

    def dim(self, n: int, k: int) -> int:
        """C(n, k); zero for k outside [0, n*d]."""
        if not type(n) is type(k) is int:   # one test for both
            if type(n) is not int:
                _count(n, "n")
            _count(k, "k", None)
        row = self._row(n)
        return row[k] if 0 <= k < len(row) else 0

    def _row(self, n: int) -> tuple[int, ...]:
        """``row`` for an int level."""
        if n >= len(self._rows):
            self.extend(n)
        elif n < 0:
            raise ValueError(f"level {n} is negative")
        return self._rows[n]


class _LevelStore:
    """One record per level, ``_rows[n] = (lo, vals, anchor)``: the run
    vals = C(n, lo..), answering reads within ``_reach`` = levels * d of the anchor.

    ``dim`` is zero for k outside [0, n*d] and refuses a negative level as in
    DimTable.  A level that is not held goes to the subclass's ``_build``,
    which builds its record or raises KeyError; a read more than ``_reach``
    from the anchor raises KeyError; a read within reach that the run lacks
    widens the run to the whole reach by ``_sideways``.
    """

    def __init__(self, poly: GenPolynomial, levels: int):
        self.poly, self._d, self._reach = _check_poly(poly), poly.degree, levels * poly.degree
        self._rows: dict[int, tuple[int, list[int], int]] = {}

    def dim(self, n: int, k: int) -> int:
        """C(n, k); zero for k outside [0, n*d]."""
        if n < 0:
            raise ValueError(f"level {n} is negative")
        if not 0 <= k <= n * self._d:
            return 0
        run = self._rows.get(n)
        if run is None:
            run = self._build(n, k)
        lo, vals, kap = run
        if abs(k - kap) > self._reach:
            raise KeyError((n, k))
        if not lo <= k < lo + len(vals):
            lo, vals, _ = self._cover(n, kap - self._reach, kap + self._reach)
        return vals[k - lo]

    def _cover(self, n: int, lo: int, hi: int) -> tuple[int, list[int], int]:
        """Level n's record, its run widened by ``_sideways`` to hold [lo, hi] in the row."""
        start, vals, kap = self._rows[n]
        lo, hi = min(max(lo, 0), start), min(hi, n * self._d)
        if lo < start or hi >= start + len(vals):
            self._rows[n] = lo, _sideways(self.poly.coeffs, n, start, vals, lo, hi), kap
        return self._rows[n]


class PathColumn(_LevelStore):
    """Exact C(n, k) near one path's vertices: a read-only stand-in for DimTable.

    ``steps`` yields the vertex step of the path's letters 1, 2, ...; level n
    is built the first time ``dim`` asks for it and pulls the n-th step, and
    is anchored at the path's vertex kappa_n.  The reach is w = max(depth, 1)*d,
    on the last depth + 1 levels built: a prefix walk reads level n - 1
    within d of the path, a reader of depth m level n - j within j*d <= m*d.
    A level is built narrow, within d of the path, from the level below by
    ``_next_level``: 2d + 1 entries a level at any depth, with big-integer
    products only where a_j > 1; a prefix walk never widens it.
    """

    def __init__(self, poly: GenPolynomial, steps, depth: int = 0):
        super().__init__(poly, max(_count(depth, "depth"), 1))
        self._steps, self._keep, self._n = iter(steps), depth + 1, 0
        self._rows[0] = 0, [1], 0

    def _build(self, n: int, k: int) -> tuple[int, list[int], int]:
        """Build levels newest + 1 to n narrow, each from the run below it."""
        a, d = self.poly.coeffs, self._d
        if n <= self._n:
            raise KeyError((n, k))          # dropped
        while self._n < n:
            m = self._n + 1
            step = next(self._steps, None)
            if step is None:
                raise KeyError((n, k))      # the path ends below level n
            prev_lo, prev, kap = self._rows[m - 1]
            kap += step
            lo, hi = max(kap - d, 0), min(kap + d, m * d)
            self._rows[m] = lo, _next_level(a, m, prev_lo, prev, lo, hi), kap
            self._rows.pop(m - self._keep, None)
            self._n = m
        return self._rows[n]


def _check_words(r: int, m: int, what: str) -> None:
    """Refuse r^m words past ``_WORD_BUDGET``, naming ``what``; r^m is formed only up to
    m = 64, past which every r >= 2 is over the budget, so a huge m is refused at once."""
    if r ** min(m, 64) > _WORD_BUDGET:
        raise CapacityError(f"{r}^{m} {what}")


def _table_entries(d: int, n: int) -> int:
    """Entries of the dense table to level n: sum of L*d + 1 over L <= n."""
    return (n + 1) + d * n * (n + 1) // 2


def _admit(what: str, amount: int, unit: str = "entries", n: int = 0, d: int = 0,
           bits=None) -> None:
    """Refuse, with a CapacityError, a build of ``amount`` ``unit`` past the entry budget.

    A build up to level n of degree d within the dense table's reach is part
    of a table the entry budget admits, so it answers wherever that table
    did.  Above it, entries grow long enough that their count no longer
    bounds memory: ``bits()`` bounds the build's bits, with the level the
    bound stopped at or None, and the build is refused past the bit budget.
    """
    if amount > DEFAULT_ENTRY_BUDGET:
        raise CapacityError(f"{what} needs {amount} {unit}, budget is {DEFAULT_ENTRY_BUDGET}")
    if bits is not None and _table_entries(d, n) > DEFAULT_ENTRY_BUDGET:
        count, level = bits()
        if count > _BIT_BUDGET:
            where = "" if level is None else f" by level {level}"
            raise CapacityError(f"{what} needs up to {count} bits{where}, "
                                f"budget is {_BIT_BUDGET} bits")


def _cone_entries(d: int, n: int, kap: int) -> int:
    """Entries of the cone below (n, kap), for 0 <= kap <= n*d.

    Level L holds max(0, kap - (n-L)*d) <= k <= min(L*d, kap).  With
    m = min(n, kap // d), the upper ends sum to d*m(m+1)/2 + kap*(n-m) and
    the lower ends to (m+1)*kap - d*m(m+1)/2.
    """
    m = min(n, kap // d) if d else n
    return d * m * (m + 1) + kap * (n - 2 * m - 1) + n + 1


def _cone_bits(poly: GenPolynomial, n: int, kap: int) -> tuple[int, int]:
    """Bound on the bits of the cone below (n, kap) up to level L, and that L.

    C(L, k) <= p(1)^L, so an entry at level L is charged L*bitlen(p(1)) + 1
    bits.  The sum runs up the levels and stops at the first level where it
    passes the bit budget; each level adds at least L bits, so it stops
    within about sqrt(2*_BIT_BUDGET) levels at any n.
    """
    d, b = poly.degree, poly.alphabet_size.bit_length()
    bits = 0
    for L in range(n + 1):
        width = min(L * d, kap) - max(0, kap - (n - L) * d) + 1
        bits += width * (L * b + 1)
        if bits > _BIT_BUDGET:
            break
    return bits, L


class VertexCone:
    """Exact C(L, k) on the paths up to one vertex: a read-only stand-in for DimTable.

    Level L holds the band max(0, kap - (n-L)*d) <= k <= min(L*d, kap) of
    the vertices that have a path up to (n, kap); each band is the plain
    convolution of the band below.  ``dim(L, k)`` reads the band for
    0 <= L <= n, is zero for k outside [0, L*d] as in DimTable, and every
    other read raises KeyError.  For kap outside [0, n*d] the cone is empty.
    Its entries and bits pass ``_admit`` before any is built.

    One record per level, ``(lo, hi, w, band)``: the band is one integer,
    entry k in bits (k - lo)*w up to (k - lo + 1)*w, w a whole number of
    bytes that holds every entry of the level.  Entries never carry into
    their neighbours, so the convolution of a whole band is d shifts and
    additions of that one integer, with no Python step per entry.  Every
    ``_REPACK_LEVELS`` levels the band is unpacked, its largest entry
    measured, and w reset to hold that many more levels of growth.
    """

    def __init__(self, poly: GenPolynomial, n: int, kap: int):
        _count(n, "n"), _count(kap, "kap", None)
        self.poly = _check_poly(poly)
        self._levels: list[tuple[int, int, int, int]] = []
        a, d = poly.coeffs, poly.degree
        if not 0 <= kap <= n * d:
            return
        _admit(f"cone below vertex ({n}, {kap})", _cone_entries(d, n, kap), n=n, d=d,
               bits=lambda: _cone_bits(poly, n, kap))
        grow = poly.alphabet_size.bit_length()
        levels = self._levels = [(0, 0, 8, 1)]
        room = 0                        # levels before a repack
        for L in range(1, n + 1):
            prev_lo, prev_hi, w, band = levels[-1]
            if not room:
                vals = _unpack(band, prev_hi - prev_lo + 1, w)
                w = -(-(max(vals).bit_length() + _REPACK_LEVELS * grow) // 8) * 8
                band, room = _pack(vals, w), _REPACK_LEVELS
            room -= 1
            # sum_j a_j * band * 2^(j*w), by Horner from the top coefficient
            conv = a[d] * band
            for j in range(d - 1, -1, -1):
                conv = (conv << w) + (band if a[j] == 1 else a[j] * band)
            lo, hi = max(0, kap - (n - L) * d), min(L * d, kap)
            if lo > prev_lo:
                conv >>= (lo - prev_lo) * w
            if hi < prev_hi + d:
                conv &= (1 << ((hi - lo + 1) * w)) - 1
            levels.append((lo, hi, w, conv))

    def dim(self, n: int, k: int) -> int:
        """C(n, k); zero for k outside [0, n*d]."""
        if n < 0:
            raise ValueError(f"level {n} is negative")
        if not 0 <= k <= n * self.poly.degree:
            return 0
        if not (n < len(self._levels) and self._levels[n][0] <= k <= self._levels[n][1]):
            raise KeyError((n, k))
        lo, _, w, band = self._levels[n]
        return (band >> ((k - lo) * w)) & ((1 << w) - 1)


def _descent_entries(d: int, n: int, kap: int) -> int:
    """Entries the descent from (n, kap) builds, for 0 <= kap <= n*d.

    At most 3d + 1 a level, and at level n the run to the nearer row end
    besides.
    """
    return min(kap, n * d - kap) + (3 * d + 1) * (n + 1)


def _descent_bits(poly: GenPolynomial, n: int, kap: int) -> int:
    """Bound on the bits of the descent's entries, charged as in ``_cone_bits``."""
    d, b = poly.degree, poly.alphabet_size.bit_length()
    # the sum of L*b + 1 over the levels 0..n is (n + 1)(n*b + 2)/2
    return min(kap, n * d - kap) * (n * b + 1) + (3 * d + 1) * ((n + 1) * (n * b + 2) // 2)


@lru_cache(maxsize=None)
def _bezout(a: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...], int] | None:
    """Integers U, V and D > 0 with U p + V p' = D, or None where gcd(p, p') != 1.

    deg U <= d - 2 and deg V <= d - 1: the 2d - 1 equations on the
    coefficients of x^0..x^(2d-2) (the Sylvester system of p and p') are
    solved fraction-free, by Bareiss elimination, whose last pivot is the
    determinant, and back substitution, exact in the integers.  The system
    is singular exactly where p and p' share a root.  A constant p has U = 1,
    D = a_0 and no V.
    """
    d = len(a) - 1
    if not d:
        return (1,), (), a[0]
    size = 2 * d - 1
    rows = [[0] * (size + 1) for _ in range(size)]
    for i in range(d - 1):              # column i: x^i p
        for j, c in enumerate(a):
            rows[i + j][i] = c
    for i in range(d):                  # column d - 1 + i: x^i p'
        for j in range(1, d + 1):
            rows[i + j - 1][d - 1 + i] = j * a[j]
    rows[0][size] = 1
    prev = 1
    for k in range(size):
        pivot = next((r for r in range(k, size) if rows[r][k]), None)
        if pivot is None:
            return None
        rows[k], rows[pivot] = rows[pivot], rows[k]
        top, pk = rows[k], rows[k][k]
        for r in range(k + 1, size):
            row, f = rows[r], rows[r][k]
            row[k:] = [(pk * x - f * y) // prev for x, y in zip(row[k:], top[k:])]
        prev = pk
    y = [0] * size
    for i in range(size - 1, -1, -1):
        row = rows[i]
        y[i] = (prev * row[size] - sum(row[j] * y[j] for j in range(i + 1, size))) // row[i]
    g = math.gcd(prev, *y) * (1 if prev > 0 else -1)
    return tuple(u // g for u in y[:d - 1]), tuple(v // g for v in y[d - 1:]), prev // g


class VertexDescent(_LevelStore):
    """Exact C(L, k) along the walk down from one vertex: a read-only stand-in for DimTable.

    Where gcd(p, p') = 1, ``_bezout`` gives U p + V p' = D, so
    p^(L-1) = (U p^L + (V/L) (p^L)') / D, which reads
        D L C(L-1, k) = L sum_i U_i C(L, k-i) + sum_i V_i (k-i+1) C(L, k-i+1):
    level L - 1 from level L on [k-d+2, k+1] alone, the division exact.
    Level n is built first, by ``_sideways`` from its nearer row end (the top
    end through the reversed coefficients, C_p(n, k) = C_rev(p)(n, n*d - k)),
    and anchored at kap.  The reach is d.  Level L - 1 is built on its first
    read e within d left of level L's anchor, and anchored there: d seeds by
    the identity at level L's anchor, widened to [e-d+2, e+d], which holds
    the walk's reads there and the next level's seeds' reads.  Unranking
    reads C(L-1, kap_L - s) for s = d..0, so it enters level L - 1 at
    max(0, kap_L - d), kap_L one of level L's reads.  Only the newest level
    is held, and level m is entered only while level m + 1 is: level n with
    its run to the nearer row end, then at most 3d + 1 entries a level.  For kap outside [0, n*d] the descent is empty.
    Its entries and bits pass ``_admit`` before any is built.  A p with a
    repeated root has no descent: ValueError.
    """

    def __init__(self, poly: GenPolynomial, n: int, kap: int):
        _count(n, "n"), _count(kap, "kap", None)
        super().__init__(poly, 1)
        identity = _bezout(poly.coeffs)
        if identity is None:
            raise ValueError(f"{poly} has a repeated root: no descent")
        U, V, self._D = identity
        # the identity as D L C(L-1, k) = sum_r (L u_r + (k-r) v_r) C(L, k-r),
        # u_r = U_r and v_r = V_(r+1)
        self._stencil = [(r, U[r] if 0 <= r < len(U) else 0, V[r + 1] if r + 1 < len(V) else 0)
                         for r in range(-1 if V else 0, max(len(U), len(V) - 1))]
        a, d = poly.coeffs, poly.degree
        top = n * d
        if not 0 <= kap <= top:
            return
        _admit(f"descent from vertex ({n}, {kap})", _descent_entries(d, n, kap), n=n, d=d,
               bits=lambda: (_descent_bits(poly, n, kap), None))
        if kap <= top - kap:
            self._rows[n] = 0, _sideways(a, n, 0, [a[0] ** n], 0, min(kap + d, top)), kap
        else:
            lo = max(kap - d, 0)
            self._rows[n] = lo, _sideways(a[::-1], n, 0, [a[d] ** n], 0, top - lo)[::-1], kap

    def _build(self, m: int, e: int) -> tuple[int, list[int], int]:
        """Build level m, one below the held level, entered at e."""
        a, d = self.poly.coeffs, self._d
        L, top = m + 1, m * d
        if L not in self._rows or not 0 <= self._rows[L][2] - e <= d:
            raise KeyError((m, e))
        lo, vals, kap = self._rows[L]
        # d seeds from s on in the row (one where d = 0), as near the entry
        # point above as that allows; they read level L on [s-d+2, s+d]
        s = max(0, min(kap, top + 1 - max(d, 1)))
        count = min(max(d, 1), top + 1 - s)
        if s - d + 2 < lo or s + count >= lo + len(vals):
            lo, vals, _ = self._cover(L, s - d + 2, s + count)
        seeds, DL, row_end = [], self._D * L, L * d
        for k in range(s, s + count):
            num = 0
            for r, u, v in self._stencil:
                if 0 <= k - r <= row_end:
                    num += (L * u + (k - r) * v) * vals[k - r - lo]
            seeds.append(num // DL)
        lo = min(s, max(e - d + 2, 0))
        run = lo, _sideways(a, m, s, seeds, lo, min(e + d, top)), e
        self._rows = {m: run}
        return run


def _vertex_plan(poly: GenPolynomial, n: int, kap: int) -> tuple[type, int]:
    """The row source unranking at (n, kap) reads, and the entries it builds.

    The descent needs gcd(p, p') = 1, and is taken where its entries and the
    solve behind them, charged (2d - 1)^3 entries, are fewer than the cone's;
    the solve runs only then, once per polynomial.  Along a path both counts
    only grow, and so does the smaller.
    """
    d = poly.degree
    cone = _cone_entries(d, n, kap)
    if 0 <= kap <= n * d:
        descent = _descent_entries(d, n, kap) + (2 * d - 1) ** 3
        if descent < cone and _bezout(poly.coeffs) is not None:
            return VertexDescent, descent
    return VertexCone, cone


def vertex_source(poly: GenPolynomial, n: int, kap: int) -> VertexDescent | VertexCone:
    """The row source unranking at (n, kap) reads: the descent, or the cone."""
    return _vertex_plan(poly, n, kap)[0](poly, n, kap)


def _unpack(band: int, width: int, w: int) -> list[int]:
    """The ``width`` entries of ``w`` bits each packed into ``band``, lowest first."""
    raw, size = band.to_bytes(width * w // 8, "little"), w // 8
    return [int.from_bytes(raw[i:i + size], "little") for i in range(0, len(raw), size)]


def _pack(vals: list[int], w: int) -> int:
    """``vals`` packed lowest first into ``w`` bits each (a multiple of 8)."""
    size = w // 8
    return int.from_bytes(b"".join(v.to_bytes(size, "little") for v in vals), "little")
