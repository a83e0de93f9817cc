"""Words over the edge alphabet, the tail-lexicographic order, and the adic map.

Edges into every vertex carry letters ``0..r-1`` in step groups: the first
``a_d`` letters step the vertex index by ``d``, and so on down to the last
``a_0`` letters, which step by zero; so the labels below a letter are counted
from the group sizes.  A word is a finite path read from level 1 upward; two
words of the same length and the same total step compare at the *largest*
index where they differ, letters comparing by label.  Rank, unrank, successor
and predecessor below all realize that order.  Successor, predecessor,
iter_tower and the CLI's orbit step through one loop, ``_steps``, which
rewrites only the letters up to each step's pivot.  The CLI's succ moves K
steps at once with ``jump``: the adic map adds one to the rank at the lowest
level where that rank still fits and leaves the letters above alone, so K
steps are one rank walk and one unrank.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, count, islice

from .errors import (CapacityError, HorizonExhausted, MaximalPath, MinimalPath,
                     PrefixExhausted, RankOutOfRange)
from .poly import (DEFAULT_ENTRY_BUDGET, DimTable, GenPolynomial, PathColumn, VertexCone,
                   VertexDescent, _admit, _check_poly, _count, _vertex_plan, vertex_source)

_DIGIT_LABELS = [{c: str(c) for c in range(r)} for r in range(11)]  # by alphabet size r


@dataclass(frozen=True)
class LetterTable:
    """Step groups of the labels: the a_s labels first[s]..last[s] step by s."""

    poly: GenPolynomial
    kstep: tuple[int, ...]       # vertex-index increment of each letter
    first: tuple[int, ...]       # lowest label of step s: a_d + ... + a_{s+1}
    last: tuple[int, ...]        # highest label of each step: last words


@lru_cache(maxsize=None)
def letter_table(poly: GenPolynomial) -> LetterTable:
    """Label groups in decreasing step order: sizes (a_d, ..., a_0)."""
    _admit("alphabet", poly.alphabet_size, "letters")
    a, d = poly.coeffs, poly.degree
    kstep = tuple(s for s in range(d, -1, -1) for _ in range(a[s]))
    first = tuple(accumulate(a[:0:-1], initial=0))[::-1]
    last = tuple(f + size - 1 for f, size in zip(first, a))
    return LetterTable(poly, kstep, first, last)


def _check_letters(letters, r: int | None = None) -> None:
    """Refuse, with ValueError, a letter not an int (bools too), or given r outside 0..r-1."""
    if {*map(type, letters)} - {int}:
        c = next(c for c in letters if type(c) is not int)
        raise ValueError(f"letter {c!r} is not an integer")
    if r is not None and (labels := set(letters)) and (min(labels) < 0 or max(labels) >= r):
        c = next(c for c in letters if not 0 <= c < r)
        raise ValueError(f"letter {c} outside the alphabet 0..{r - 1}")


def kappa(word, poly: GenPolynomial) -> int:
    """Vertex index reached by the word: sum of letter steps."""
    ks = letter_table(poly).kstep
    _check_letters(word, len(ks))
    return sum(ks[c] for c in word)


def word_to_string(word, poly: GenPolynomial) -> str:
    """Digit string for r <= 10, comma-separated labels otherwise; letters checked."""
    _check_letters(word, poly.alphabet_size)
    return _labels(word, poly.alphabet_size)


def _labels(word, r: int) -> str:
    """``word_to_string`` of a word already checked or generated in range."""
    return "".join(map(_DIGIT_LABELS[r].__getitem__, word)) if r <= 10 else ",".join(map(str, word))


def word_from_string(text: str, poly: GenPolynomial) -> tuple[int, ...]:
    r = poly.alphabet_size
    text = text.strip()
    if not text:
        return ()
    if "," in text:
        labels = [p.strip() for p in text.split(",")]
    else:
        labels = list(text) if r <= 10 else [text]
    if not all(p.isascii() and p.isdigit() and (p == "0" or p[0] != "0")
               for p in labels):
        raise ValueError(f"bad word {text!r}: labels must be ASCII digits "
                         "without leading zeros")
    word = tuple(int(p) for p in labels)
    if any(not 0 <= c < r for c in word):
        raise ValueError(f"letter out of range in {text!r} (alphabet size {r})")
    return word


def path_column(x, poly: GenPolynomial, depth: int = 0) -> PathColumn:
    """Exact dimensions near the vertices of the path x, see PathColumn."""
    x = _as_prefix(x)
    ks = letter_table(_check_poly(poly)).kstep
    def steps():    # end where the path does: the column raises KeyError above it
        with suppress(PrefixExhausted, HorizonExhausted):
            yield from (ks[x.letter(n)] for n in count(1))
    return PathColumn(poly, steps(), depth)


def rank(word, poly: GenPolynomial) -> int:
    """1-based position of the word in its lexicographically ordered tower.

    The walk reads only near the word's vertices, along its own column.
    """
    rnk = 1
    for _, _, rnk in prefix_walk(word, path_column(word, poly)):
        pass
    return rnk


def unrank(n: int, kap: int, index: int,
           table: DimTable | VertexCone | VertexDescent) -> tuple[int, ...]:
    """Word of length n at vertex index kap whose rank equals index.

    Step group s holds a_s blocks of C(level-1, kap-s) words; the walk reads
    them group by group, from step d down, only up to the index's group.  It
    reads ``dim`` level by level from n down, at most d left of the vertex of
    the word's path there: the cone or the descent at (n, kap) holds those
    reads, a ``PathColumn`` (its last few levels only) does not.
    """
    _count(n, "n"), _count(kap, "kap", None), _count(index, "index", None)
    lt = letter_table(table.poly)
    a, d = lt.poly.coeffs, lt.poly.degree
    total = table.dim(n, kap)
    if not 1 <= index <= total:
        raise RankOutOfRange(
            f"index {index} outside [1, {total}] at vertex ({n}, {kap})")
    before = index - 1              # words ranked below the one sought
    letters = [0] * n
    for level in range(n, 0, -1):
        for s in range(d, -1, -1):
            block = table.dim(level - 1, kap - s)
            if before < a[s] * block:
                break
            before -= a[s] * block
        offset, before = divmod(before, block)
        letters[level - 1] = lt.first[s] + offset
        kap -= s
    return tuple(letters)


def _extreme_word(n: int, kap: int, lt: LetterTable, direction: int) -> tuple[int, ...]:
    """First (direction 1) or last (direction -1) word of the tower at (n, kap).

    From the top down each letter of the first word steps min(d, rest), the
    largest step that leaves a nonempty tower below, and takes the lowest
    label of that step; each letter of the last word steps
    max(0, rest - (level-1)*d), the smallest such step, and takes the highest
    label.  Either way the steps are d..d, one remainder, 0..0.
    """
    d = lt.poly.degree
    if not 0 <= kap <= n * d:
        raise RankOutOfRange(f"empty tower at vertex ({n}, {kap})")
    label = lt.first if direction > 0 else lt.last
    full, rest = divmod(kap, d) if d else (0, 0)
    high = (label[d],) * full
    mid = (label[rest],) if full < n else ()
    zero = (label[0],) * (n - full - 1)
    return zero + mid + high if direction > 0 else high + mid + zero


def minimal_word(n: int, kap: int, poly: GenPolynomial) -> tuple[int, ...]:
    """Rank-1 word at (n, kap).

    For 0 <= N <= n, its first N letters are minimal_word(N, max(kap - (n-N)*d, 0)):
    the steps are filled greedily from the top, so the n - N letters above
    take min(kap, (n-N)*d) and leave the rest to the N below.
    """
    return _end_word(n, kap, poly, 1)


def maximal_word(n: int, kap: int, poly: GenPolynomial) -> tuple[int, ...]:
    """Last word at (n, kap), of rank C(n, kap)."""
    return _end_word(n, kap, poly, -1)


def _end_word(n: int, kap: int, poly: GenPolynomial, direction: int) -> tuple[int, ...]:
    """``_extreme_word`` at a caller's (n, kap): both checked, and n letters admitted."""
    _count(n, "n"), _count(kap, "kap", None), _admit("word", n, "letters")
    return _extreme_word(n, kap, letter_table(poly), direction)


class PathPrefix:
    """The known prefix of an infinite path, extendable on demand.

    ``extend`` is an optional iterator producing further letters; without it
    the prefix is all that will ever be known.  ``max_level`` caps how far
    any search is allowed to materialize the path.
    """

    def __init__(self, letters=(), extend=None, max_level: int | None = None):
        self._letters = list(letters)
        _check_letters(self._letters)
        self._extend = iter(extend) if extend is not None else None
        self.max_level = None if max_level is None else _count(max_level, "max_level")

    def __len__(self) -> int:
        return len(self._letters)

    def known(self) -> tuple[int, ...]:
        return tuple(self._letters)

    def prefix(self, n: int) -> tuple[int, ...]:
        """The letters of levels 1..n, extending the prefix if allowed."""
        self._ensure(_count(n, "n"))
        return tuple(self._letters[:n])

    def letter(self, n: int) -> int:
        """1-based letter at level n, extending the prefix if allowed."""
        if n < 1:
            raise ValueError(f"level {n} is below 1")
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
                c = next(self._extend)
            except StopIteration:
                self._extend = None
                raise PrefixExhausted(f"extension policy ended before level {nxt}") from None
            if type(c) is not int:
                _check_letters((c,))
            self._letters.append(c)


def _as_prefix(x) -> PathPrefix:
    return x if isinstance(x, PathPrefix) else PathPrefix(tuple(x))


def prefix_walk(x, table: DimTable | PathColumn, n_max: int | None = None):
    """Yield (n, kappa_n, rank_n) for n = 1, 2, ... along the path prefix.

    The rank accumulates level by level: at level n, each letter below the
    prefix's letter c adds the words that agree above n and carry it at n,
    C(n-1, kappa_n - s) for its step s.  These are c - first[sigma] letters of
    c's own step sigma and a_s of each larger step s <= kappa_n, so each vertex
    read is the previous one or within d left of it: on the row, in the
    narrow window a path column builds each level with.  The walk reads
    through ``dim`` alone.  It stops after level n_max, or quietly where the
    prefix runs out of letters or reaches its own horizon.
    """
    x = _as_prefix(x)
    lt = letter_table(table.poly)
    a, d, r = table.poly.coeffs, table.poly.degree, len(lt.kstep)
    dim = table.dim
    kap = 0
    rnk = 1
    n = 0
    if n_max is not None:
        _count(n_max, "n_max")
    while n_max is None or n < n_max:
        try:
            c = x.letter(n + 1)
        except (PrefixExhausted, HorizonExhausted):
            return
        if not 0 <= c < r:
            _check_letters((c,), r)
        sigma = lt.kstep[c]
        kap += sigma
        rnk += (c - lt.first[sigma]) * dim(n, kap - sigma)
        for s in range(sigma + 1, min(d, kap) + 1):
            rnk += a[s] * dim(n, kap - s)
        n += 1
        yield n, kap, rnk


def _steps(x, poly: GenPolynomial, direction: int):
    """Yield the successors of x one after another, or its predecessors for -1.

    One copy of x's letters, with x's horizon, is rewritten in place and
    yielded at every step; it reads the letters above its prefix through x,
    so x keeps its own letters.  A step walks up the letters to the first level
    n where a label b past the letter there, in that direction, leaves a
    nonempty tower below (0 <= kappa_n - step(b) <= (n-1)*d); every head
    below is then extremal in its tower.  The new head is the first word
    (the last, for -1) of the tower below followed by b, and the letters
    above the pivot are untouched, so a step costs O(1) levels on average.
    """
    if type(direction) is not int or direction not in (1, -1):
        raise ValueError(f"direction must be 1 or -1, got {direction!r}")
    x = _as_prefix(x)
    y = PathPrefix(x.known(), map(x.letter, count(len(x) + 1)), x.max_level)
    lt = letter_table(poly)
    ks, d, r, letters = lt.kstep, poly.degree, len(lt.kstep), y._letters
    kap = n = 0
    while True:
        if n < len(letters):
            c = letters[n]
        else:
            try:
                c = y.letter(n + 1)
            except PrefixExhausted as exc:
                raise _no_neighbour(direction, n) from exc
        if not 0 <= c < r:
            _check_letters((c,), r)
        kap += ks[c]
        b = c + direction
        while 0 <= b < r and not 0 <= kap - ks[b] <= n * d:
            b += direction
        if 0 <= b < r:
            letters[:n + 1] = _extreme_word(n, kap - ks[b], lt, direction) + (b,)
            yield y
            kap = n = 0
        else:
            n += 1


def _no_neighbour(direction: int, n: int) -> MaximalPath | MinimalPath:
    if direction > 0:
        return MaximalPath(f"maximal through level {n}")
    return MinimalPath(f"minimal through level {n}")


def jump(word, poly: GenPolynomial, steps: int, direction: int = 1) -> tuple[int, ...]:
    """The word ``steps`` adic steps after the finite word (before it, for -1).

    It gives the same word, or the same MaximalPath/MinimalPath, as taking
    the steps one by one, and takes them so itself where rank arithmetic
    would build more big-integer entries than there are steps (``_jump``);
    more steps than the entry budget are refused with a CapacityError.
    """
    if type(direction) is not int or direction not in (1, -1):
        raise ValueError(f"direction must be 1 or -1, got {direction!r}")
    _count(steps, "steps")
    word = tuple(word)
    _check_letters(word, poly.alphabet_size)
    if not steps:
        return word
    moved = _jump(word, poly, steps, direction, steps)
    if moved is None:
        if steps > DEFAULT_ENTRY_BUDGET:
            raise CapacityError(f"cannot jump {steps} steps within the entry budget, and "
                                f"more than {DEFAULT_ENTRY_BUDGET} are not taken one by one")
        for y in islice(_steps(word, poly, direction), steps):
            pass
        moved = y.known()
    return moved


def _jump(word: tuple[int, ...], poly: GenPolynomial, steps: int, direction: int,
          budget: int) -> tuple[int, ...] | None:
    """``jump`` by rank arithmetic, or None where it would build over ``budget`` entries.

    Every step of the adic map adds one to the rank at the pivot level and
    leaves the letters above it alone, so ``steps`` of them lead to the word
    of rank r_n + steps (r_n - steps, for -1) at (n, kappa_n), followed by
    the word's letters above n, for the lowest level n where that rank lies
    in [1, C(n, kappa_n)].  The rank walk reads the word's path column, up
    to 2d + 1 entries a level, and the unrank the source ``vertex_source``
    picks at (n, kappa_n).  Before a level is built, those entries up to it
    and the source's are counted against ``budget``; that count only grows
    along a path, so once it passes the budget it passes it at every level
    above.
    """
    d = poly.degree
    column = path_column(word, poly)
    for n, kap, rnk in prefix_walk(word, column):
        if (2 * d + 1) * n + _vertex_plan(poly, n, kap)[1] > budget:
            return None
        target = rnk + direction * steps
        if 1 <= target <= column.dim(n, kap):
            try:
                source = vertex_source(poly, n, kap)
            except CapacityError:
                return None
            return unrank(n, kap, target, source) + word[n:]
    raise _no_neighbour(direction, len(word))


def successor(x, poly: GenPolynomial, direction: int = 1) -> PathPrefix:
    """Next path in the tail-lexicographic order, or the previous one for -1."""
    return next(_steps(x, poly, direction))


def predecessor(x, poly: GenPolynomial) -> PathPrefix:
    """Previous path in the tail-lexicographic order."""
    return successor(x, poly, -1)


def iter_tower(n: int, kap: int, poly: GenPolynomial):
    """Yield the words of the tower at vertex (n, kap) in rank order."""
    with suppress(RankOutOfRange, MaximalPath):     # empty tower, last word
        word = minimal_word(n, kap, poly)
        yield word
        yield from (y.known() for y in _steps(word, poly, 1))
