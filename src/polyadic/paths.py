"""Words over the edge alphabet, the tail-lexicographic order, and the adic map.

Edges into every vertex carry letters ``0..r-1``.  The first ``a_d`` letters
step the vertex index by ``d``, the next ``a_{d-1}`` by ``d-1``, and so on
down to the last ``a_0`` letters which step by zero.  A word is a finite path
read from level 1 upward; two words of the same length and the same total
step compare at the *largest* index where they differ, letters comparing by
label.  Rank, unrank, successor and predecessor below all realize that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import count

from .errors import (HorizonExhausted, MaximalPath, MinimalPath,
                     PrefixExhausted, RankOutOfRange)
from .poly import DimTable, GenPolynomial, PathColumn


@dataclass(frozen=True)
class LetterTable:
    """Per-letter bookkeeping derived from the generating polynomial."""

    poly: GenPolynomial
    kstep: tuple[int, ...]       # vertex-index increment of each letter
    k1step: tuple[int, ...]      # d - kstep
    group_index: tuple[int, ...]  # 0 for the first (largest-step) letter group
    offset: tuple[int, ...]      # position within the letter's group
    # number of letters with label < c stepping by s, for each letter c
    below: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def letter_table(poly: GenPolynomial) -> LetterTable:
    """Label groups in decreasing step order: sizes (a_d, ..., a_0)."""
    d = poly.degree
    kstep, group_index, offset = [], [], []
    for g, step in enumerate(range(d, -1, -1)):
        for i in range(poly.coeffs[step]):
            kstep.append(step)
            group_index.append(g)
            offset.append(i)
    below = []
    counts = [0] * (d + 1)
    for c in range(poly.alphabet_size):
        below.append(tuple(counts))
        counts[kstep[c]] += 1
    return LetterTable(poly, tuple(kstep), tuple(d - s for s in kstep),
                       tuple(group_index), tuple(offset), tuple(below))


def kappa(word, poly: GenPolynomial) -> int:
    """Vertex index reached by the word: sum of letter steps."""
    ks = letter_table(poly).kstep
    return sum(ks[c] for c in word)


def co_kappa(word, poly: GenPolynomial) -> int:
    """Co-index len(word)*d - kappa(word)."""
    return len(word) * poly.degree - kappa(word, poly)


def word_to_string(word, poly: GenPolynomial) -> str:
    """Digit string for r <= 10, comma-separated labels otherwise."""
    if poly.alphabet_size <= 10:
        return "".join(str(c) for c in word)
    return ",".join(str(c) for c in word)


def word_from_string(text: str, poly: GenPolynomial) -> tuple[int, ...]:
    r = poly.alphabet_size
    text = text.strip()
    if not text:
        return ()
    if "," in text:
        word = tuple(int(p) for p in text.split(","))
    elif r <= 10:
        word = tuple(int(ch) for ch in text)
    else:
        word = (int(text),)
    if any(not 0 <= c < r for c in word):
        raise ValueError(f"letter out of range in {text!r} (alphabet size {r})")
    return word


def path_column(x, poly: GenPolynomial, depth: int = 0) -> PathColumn:
    """Exact dimensions near the vertices of the path x, see PathColumn."""
    x = _as_prefix(x)
    ks = letter_table(poly).kstep
    return PathColumn(poly, (ks[x.letter(n)] for n in count(1)), depth)


def rank(word, table: DimTable | PathColumn) -> int:
    """1-based position of the word in its lexicographically ordered tower.

    The walk reads only near the word's vertices, so a DimTable passed here
    gives just the polynomial: the word's own column replaces it.
    """
    if isinstance(table, DimTable):
        table = path_column(word, table.poly)
    rnk = 1
    for _, _, rnk in prefix_walk(word, table):
        pass
    return rnk


def unrank(n: int, kap: int, index: int, table: DimTable) -> tuple[int, ...]:
    """Word of length n at vertex index kap whose rank equals index."""
    lt = letter_table(table.poly)
    total = table.dim(n, kap)
    if not 1 <= index <= total:
        raise RankOutOfRange(
            f"index {index} outside [1, {total}] at vertex ({n}, {kap})")
    letters = [0] * n
    for level in range(n, 0, -1):
        row = table.row(level - 1)
        for c, step in enumerate(lt.kstep):
            block = row[kap - step] if 0 <= kap - step < len(row) else 0
            if index <= block:
                letters[level - 1] = c
                kap -= step
                break
            index -= block
    return tuple(letters)


def minimal_word(n: int, kap: int,
                 table: DimTable | PathColumn) -> tuple[int, ...]:
    """Rank-1 word at (n, kap); only ``table.poly`` is read.

    From the top down each letter steps min(d, rest), the largest step that
    leaves a nonempty tower below, and takes the lowest label of that step.
    """
    d = table.poly.degree
    if n < 0:
        raise ValueError(f"level {n} is negative")
    if not 0 <= kap <= n * d:
        raise RankOutOfRange(f"index 1 outside [1, 0] at vertex ({n}, {kap})")
    first = letter_table(table.poly).kstep.index
    full, rest = divmod(kap, d) if d else (0, 0)
    if full == n:
        return (first(d),) * n
    return (first(0),) * (n - full - 1) + (first(rest),) + (first(d),) * full


def maximal_word(n: int, kap: int, table: DimTable) -> tuple[int, ...]:
    return unrank(n, kap, table.dim(n, kap), table)


def is_minimal(word, table: DimTable) -> bool:
    return rank(word, table) == 1


def is_maximal(word, table: DimTable) -> bool:
    return rank(word, table) == table.dim(len(word), kappa(word, table.poly))


class PathPrefix:
    """The known prefix of an infinite path, extendable on demand.

    ``extend`` is an optional iterator producing further letters; without it
    the prefix is all that will ever be known.  ``max_level`` caps how far
    any search is allowed to materialize the path.
    """

    def __init__(self, letters=(), extend=None, max_level: int | None = None):
        self._letters = list(letters)
        self._extend = iter(extend) if extend is not None else None
        self.max_level = max_level

    def __len__(self) -> int:
        return len(self._letters)

    def known(self) -> tuple[int, ...]:
        return tuple(self._letters)

    def prefix(self, n: int) -> tuple[int, ...]:
        self._ensure(n)
        return tuple(self._letters[:n])

    def letter(self, n: int) -> int:
        """1-based letter at level n, extending the prefix if allowed."""
        self._ensure(n)
        return self._letters[n - 1]

    def _ensure(self, n: int) -> None:
        while len(self._letters) < n:
            nxt = len(self._letters) + 1
            if self.max_level is not None and nxt > self.max_level:
                raise HorizonExhausted(f"level {nxt} beyond horizon {self.max_level}")
            if self._extend is None:
                raise PrefixExhausted(f"no letter at level {nxt} and no extension policy")
            try:
                self._letters.append(int(next(self._extend)))
            except StopIteration:
                self._extend = None
                raise PrefixExhausted(f"extension policy ended before level {nxt}") from None

    def with_head(self, head) -> "PathPrefix":
        """Copy of the prefix with its first len(head) letters replaced."""
        letters = list(head) + self._letters[len(head):]
        out = PathPrefix(letters, max_level=self.max_level)
        out._extend = self._extend  # continuation stream is handed over
        return out


def _as_prefix(x) -> PathPrefix:
    return x if isinstance(x, PathPrefix) else PathPrefix(tuple(x))


def prefix_walk(x, table: DimTable | PathColumn, n_max: int | None = None):
    """Yield (n, kappa_n, rank_n) for n = 1, 2, ... along the path prefix.

    The rank accumulates level by level: at level n, each letter below the
    prefix's letter adds the words that agree above n and carry it at n,
    i.e. the dimension of the vertex it leaves one level down.  The walk
    stops after level n_max, or quietly where the prefix runs out of letters
    or reaches its own horizon.
    """
    x = _as_prefix(x)
    lt = letter_table(table.poly)
    d = table.poly.degree
    kap = 0
    rnk = 1
    n = 0
    while n_max is None or n < n_max:
        try:
            c = x.letter(n + 1)
        except (PrefixExhausted, HorizonExhausted):
            return
        row = table.row(n)
        top = n * d
        n += 1
        kap += lt.kstep[c]
        for s, cnt in enumerate(lt.below[c]):
            if cnt and 0 <= kap - s <= top:
                rnk += cnt * row[kap - s]
        yield n, kap, rnk


def successor(x, table: DimTable, direction: int = 1) -> PathPrefix:
    """Next path in the tail-lexicographic order, or the previous one for -1.

    Walks upward to the first level whose prefix is not extremal in its
    tower in that direction, then replaces exactly that head by its
    neighbour word; letters above the pivot are untouched.
    """
    x = _as_prefix(x)
    n = 0
    for n, kap, rnk in prefix_walk(x, table):
        if 1 <= rnk + direction <= table.dim(n, kap):
            return x.with_head(unrank(n, kap, rnk + direction, table))
    try:
        x.letter(n + 1)     # raises again whatever ended the walk
    except PrefixExhausted as exc:
        if direction > 0:
            raise MaximalPath(f"maximal through level {n}") from exc
        raise MinimalPath(f"minimal through level {n}") from exc


def predecessor(x, table: DimTable) -> PathPrefix:
    """Previous path in the tail-lexicographic order."""
    return successor(x, table, -1)


def iter_tower(n: int, kap: int, table: DimTable):
    """Yield the words of the tower at vertex (n, kap) in rank order."""
    total = table.dim(n, kap)
    if total == 0:
        return
    word = minimal_word(n, kap, table)
    yield word
    for _ in range(total - 1):
        word = successor(PathPrefix(word), table).known()
        yield word
