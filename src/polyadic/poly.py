"""Generating polynomials and exact tables of generalized binomial coefficients.

The coefficient table holds ``C(n, k)``, the coefficient of ``x^k`` in
``p(x)^n``, for a polynomial ``p`` with positive integer coefficients.  Entry
``(n, k)`` counts the paths from the root to vertex ``(n, k)`` of the graded
graph generated by ``p``, so everything downstream (ranking, measures, curve
extraction) leans on these integers being exact.  Three row sources share
one read surface (``poly``, ``dim(n, k)``), and only ``DimTable`` also
returns whole rows (``row(n)``): ``DimTable`` holds dense rows;
``PathColumn`` holds only the entries near one path's vertices, which is
all that ranking and curve extraction along that path read; ``VertexCone``
holds only the vertices on some path up to one vertex, which is all that
unranking at that vertex reads.  Each ``dim`` raises ValueError at a
negative level, is zero for k outside [0, n*d], and in a stand-in raises
KeyError where no entry is held.  ``DimTable`` and ``PathColumn`` build a
level from the one below with the one level builder, ``_next_level``.  A
column keeps a level as a ``(lo, list)`` run, built narrow, only as far
from the path as a prefix walk reads, and widened sideways by the row
recurrence ``_next_level`` ends its windows with (``_sideways``) on the
first read past that.  A cone band is a packed one-integer convolution.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapacityError

DEFAULT_ENTRY_BUDGET = 4_000_000
# Bits a cone above the dense table's reach may hold: an entry at level L has
# up to L*log2(p(1)) bits, so counting entries alone does not bound memory.
_CONE_BIT_BUDGET = 64 * DEFAULT_ENTRY_BUDGET
# Levels a packed cone band may grow before its entries are measured and
# repacked: a level's entries, and every partial sum of its convolution, have
# at most bitlen(p(1)) bits more than the largest entry of the level below.
_REPACK_LEVELS = 32


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


def _next_level(a, n, prev_lo, prev, lo, hi) -> list[int]:
    """C(n, lo..hi) for coefficients ``a``, from level n - 1's ``prev``.

    ``prev`` holds C(n-1, k) in k order from ``prev_lo`` on (a window, or the
    whole row).  Convolution, C(n, k) = sum_j a_j C(n-1, k-j), gives the
    entries whose C(n-1, k-j) are held.  The zeros past an end of level n - 1
    count as held, padded on only where ``prev`` reaches that end: a whole
    row gives all of [0, n*d].  ``_sideways`` gives the other ends.
    """
    d = len(a) - 1
    lead = d if prev_lo == 0 else 0
    tail = d if prev_lo + len(prev) - 1 == (n - 1) * d else 0
    if lead or tail:
        prev, prev_lo = [*(0,) * lead, *prev, *(0,) * tail], prev_lo - lead
    start, stop = max(lo, prev_lo + d), min(hi, prev_lo + len(prev) - 1)
    i0, i1 = start - prev_lo, stop - prev_lo + 1
    vals = [a[0] * v for v in prev[i0:i1]]
    for j in range(1, d + 1):
        vals = [u + a[j] * v for u, v in zip(vals, prev[i0 - j:i1 - j])]
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
    above ``n_max`` first builds the missing levels, within ``entry_budget``,
    each by ``_next_level`` over the whole window [0, n*d].
    Rows are append-only tuples: existing entries never change, so concurrent
    readers are safe once a level is built.
    """

    def __init__(self, poly: GenPolynomial, n_max: int = 0,
                 entry_budget: int = DEFAULT_ENTRY_BUDGET):
        if n_max < 0:
            raise ValueError("n_max must be >= 0")
        self.poly = poly
        self.entry_budget = entry_budget
        self._rows: list[tuple[int, ...]] = [(1,)]
        self.extend(n_max)

    @property
    def n_max(self) -> int:
        return len(self._rows) - 1

    def extend(self, n_max: int) -> None:
        """Grow the table so that all levels up to ``n_max`` are present."""
        a, d = self.poly.coeffs, self.poly.degree
        entries = _table_entries(d, n_max)
        if entries > self.entry_budget:
            raise CapacityError(
                f"table with n_max={n_max}, degree={d} needs {entries} entries, "
                f"budget is {self.entry_budget}")
        for n in range(len(self._rows), n_max + 1):
            self._rows.append(tuple(_next_level(a, n, 0, self._rows[-1], 0, n * d)))

    def row(self, n: int) -> tuple[int, ...]:
        """Level n's entries C(n, 0..n*d), building the table up to n first."""
        if n >= len(self._rows):
            self.extend(n)
        elif n < 0:
            raise ValueError(f"level {n} is negative")
        return self._rows[n]

    def dim(self, n: int, k: int) -> int:
        """C(n, k); zero for k outside [0, n*d]."""
        row = self.row(n)
        return row[k] if 0 <= k < len(row) else 0


class PathColumn:
    """Exact C(n, k) near one path's vertices: a read-only stand-in for DimTable.

    ``steps`` yields the vertex step of the path's letters 1, 2, ...; level n
    is built the first time ``dim`` asks for it and pulls the n-th step.
    ``dim(n, k)`` holds for |k - kappa_n| <= w, w = max(depth, 1)*d and
    kappa_n the path's vertex at level n, on the last depth + 1 levels
    built: a prefix walk reads level n - 1 within d of the path, a reader of
    depth m level n - j within j*d <= m*d.  ``dim`` is zero for k outside
    [0, n*d] and refuses a negative level as in DimTable, and every other
    read raises KeyError.  A level is a run ``(lo, vals)`` from C(n, lo) on,
    built narrow, within d of the path, from the level below by
    ``_next_level``: 2d + 1 entries and O(d^2) big-integer products a level
    at any depth.  The first ``dim`` read past that widens the level to w by
    ``_sideways``, which replaces the run; a prefix walk never does.
    """

    def __init__(self, poly: GenPolynomial, steps, depth: int = 0):
        if depth < 0:
            raise ValueError("depth must be >= 0")
        self.poly = poly
        self._steps = iter(steps)
        self._reach = max(depth, 1) * poly.degree
        self._keep = depth + 1
        self._rows: dict[int, tuple[int, list[int]]] = {0: (0, [1])}
        self._kaps: dict[int, int] = {0: 0}
        self._n = 0

    def dim(self, n: int, k: int) -> int:
        """C(n, k); zero for k outside [0, n*d]."""
        while self._n < n:
            self._grow()
        try:
            lo, vals = self._rows[n]
        except KeyError:
            if n < 0:
                raise ValueError(f"level {n} is negative") from None
            raise
        if lo <= k < lo + len(vals):
            return vals[k - lo]
        kap, top = self._kaps[n], n * self.poly.degree
        if not 0 <= k <= top:
            return 0
        lo_w, hi_w = max(kap - self._reach, 0), min(kap + self._reach, top)
        if not lo_w <= k <= hi_w:
            raise KeyError((n, k))
        # k is within reach but not held: the level is still narrow
        vals = _sideways(self.poly.coeffs, n, lo, vals, lo_w, hi_w)
        self._rows[n] = lo_w, vals
        return vals[k - lo_w]

    def _grow(self) -> None:
        """Build level n = newest + 1 narrow, from level n - 1's run."""
        a, d = self.poly.coeffs, self.poly.degree
        n = self._n + 1
        prev_lo, prev = self._rows[n - 1]
        kap = self._kaps[n - 1] + next(self._steps)
        lo, hi = max(kap - d, 0), min(kap + d, n * d)
        self._rows[n] = lo, _next_level(a, n, prev_lo, prev, lo, hi)
        self._kaps[n] = kap
        self._rows.pop(n - self._keep, None)
        self._kaps.pop(n - self._keep, None)
        self._n = n


def _table_entries(d: int, n: int) -> int:
    """Entries of the dense table to level n: sum of L*d + 1 over L <= n."""
    return (n + 1) + d * n * (n + 1) // 2


def _cone_entries(d: int, n: int, kap: int) -> int:
    """Entries of the cone below (n, kap), for 0 <= kap <= n*d.

    Level L holds max(0, kap - (n-L)*d) <= k <= min(L*d, kap).  With
    m = min(n, kap // d), the upper ends sum to d*m(m+1)/2 + kap*(n-m) and
    the lower ends to (m+1)*kap - d*m(m+1)/2.
    """
    m = min(n, kap // d) if d else n
    return d * m * (m + 1) + kap * (n - 2 * m - 1) + n + 1


def _cone_bits(poly: GenPolynomial, n: int, kap: int, stop: int) -> tuple[int, int]:
    """Bound on the bits of the cone below (n, kap) up to level L, and that L.

    C(L, k) <= p(1)^L, so an entry at level L is charged L*bitlen(p(1)) + 1
    bits.  The sum runs up the levels and stops at the first level where it
    passes ``stop``; each level adds at least L bits, so it stops within
    about sqrt(2*stop) levels at any n.
    """
    d, b = poly.degree, poly.alphabet_size.bit_length()
    bits = 0
    for L in range(n + 1):
        width = min(L * d, kap) - max(0, kap - (n - L) * d) + 1
        bits += width * (L * b + 1)
        if bits > stop:
            break
    return bits, L


class VertexCone:
    """Exact C(L, k) on the paths up to one vertex: a read-only stand-in for DimTable.

    Level L holds the band max(0, kap - (n-L)*d) <= k <= min(L*d, kap) of
    the vertices that have a path up to (n, kap); each band is the plain
    convolution of the band below.  ``dim(L, k)`` reads the band for
    0 <= L <= n, is zero for k outside [0, L*d] as in DimTable, and every
    other read raises KeyError.  For kap outside [0, n*d] the cone is empty.
    Before any entry is built, the entries are counted against the entry
    budget.  Above the highest level whose dense table fits that budget, the
    bits are bounded too: there the cone's entries grow long enough that
    their count no longer bounds memory.  Up to that level the cone is part
    of the dense table, so it answers wherever the dense table did.

    Each band is one integer: entry k sits in bits (k - lo)*w up to
    (k - lo + 1)*w, w a whole number of bytes that holds every entry of the
    level.  Entries never carry into their neighbours, so the convolution of
    a whole band is d shifts and additions of that one integer, with no
    Python step per entry.  Every ``_REPACK_LEVELS`` levels the band is
    unpacked, its largest entry measured, and w reset to hold that many
    more levels of growth.
    """

    def __init__(self, poly: GenPolynomial, n: int, kap: int):
        if n < 0:
            raise ValueError(f"level {n} is negative")
        self.poly = poly
        self._bands: list[int] = []
        a, d = poly.coeffs, poly.degree
        if not 0 <= kap <= n * d:
            return
        entries = _cone_entries(d, n, kap)
        if entries > DEFAULT_ENTRY_BUDGET:
            raise CapacityError(
                f"cone below vertex ({n}, {kap}) needs {entries} entries, "
                f"budget is {DEFAULT_ENTRY_BUDGET}")
        if _table_entries(d, n) > DEFAULT_ENTRY_BUDGET:
            bits, top = _cone_bits(poly, n, kap, _CONE_BIT_BUDGET)
            if bits > _CONE_BIT_BUDGET:
                raise CapacityError(
                    f"cone below vertex ({n}, {kap}) needs up to {bits} bits "
                    f"by level {top}, budget is {_CONE_BIT_BUDGET} bits")
        los = self._los = [max(0, kap - (n - L) * d) for L in range(n + 1)]
        his = self._his = [min(L * d, kap) for L in range(n + 1)]
        grow = poly.alphabet_size.bit_length()
        self._bands.append(1)
        self._entry_bits = [8]
        w, room = 8, 0                  # bits an entry, levels before a repack
        for L in range(1, n + 1):
            band = self._bands[-1]
            if not room:
                vals = _unpack(band, his[L - 1] - los[L - 1] + 1, w)
                w = -(-(max(vals).bit_length() + _REPACK_LEVELS * grow) // 8) * 8
                band, room = _pack(vals, w), _REPACK_LEVELS
            room -= 1
            # sum_j a_j * band * 2^(j*w), by Horner from the top coefficient
            conv = a[d] * band
            for j in range(d - 1, -1, -1):
                conv = (conv << w) + (band if a[j] == 1 else a[j] * band)
            if los[L] > los[L - 1]:
                conv >>= (los[L] - los[L - 1]) * w
            if his[L] < his[L - 1] + d:
                conv &= (1 << ((his[L] - los[L] + 1) * w)) - 1
            self._bands.append(conv)
            self._entry_bits.append(w)

    def dim(self, n: int, k: int) -> int:
        """C(n, k); zero for k outside [0, n*d]."""
        if n < 0:
            raise ValueError(f"level {n} is negative")
        if not 0 <= k <= n * self.poly.degree:
            return 0
        if not (n < len(self._bands) and self._los[n] <= k <= self._his[n]):
            raise KeyError((n, k))
        w = self._entry_bits[n]
        return (self._bands[n] >> ((k - self._los[n]) * w)) & ((1 << w) - 1)


def _unpack(band: int, width: int, w: int) -> list[int]:
    """The ``width`` entries of ``w`` bits each packed into ``band``, lowest first."""
    raw, size = band.to_bytes(width * w // 8, "little"), w // 8
    return [int.from_bytes(raw[i:i + size], "little") for i in range(0, len(raw), size)]


def _pack(vals: list[int], w: int) -> int:
    """``vals`` packed lowest first into ``w`` bits each (a multiple of 8)."""
    size = w // 8
    return int.from_bytes(b"".join(v.to_bytes(size, "little") for v in vals), "little")
