"""Independent reference arithmetic for the benchmark's output checks.

Nothing here imports ``polyadic``: the tables, ranks and partial sums are
re-derived from the definitions (p(x)^n by convolution, tail-lexicographic
order compared at the largest differing level), so a checker built on them
does not share a defect with the code it checks.
"""

from __future__ import annotations

from itertools import product


def letter_steps(coeffs) -> tuple[int, ...]:
    """Vertex step of each letter: a_d letters of step d first, a_0 of step 0 last."""
    d = len(coeffs) - 1
    return tuple(s for s in range(d, -1, -1) for _ in range(coeffs[s]))


class Tower:
    """Exact C(n, k) = [x^k] p(x)^n for levels 0..n_max, plus rank arithmetic."""

    def __init__(self, coeffs, n_max: int):
        self.coeffs = tuple(coeffs)
        self.d = len(self.coeffs) - 1
        self.steps = letter_steps(self.coeffs)
        self.rows = [[1]]
        for _ in range(n_max):
            prev = self.rows[-1]
            row = [0] * (len(prev) + self.d)
            for j, a in enumerate(self.coeffs):
                for k, v in enumerate(prev):
                    row[k + j] += a * v
            self.rows.append(row)

    def dim(self, n: int, k: int) -> int:
        row = self.rows[n]
        return row[k] if 0 <= k < len(row) else 0

    def kappa(self, word) -> int:
        return sum(self.steps[c] for c in word)

    def rank(self, word) -> int:
        """1-based position of the word among equal-length, equal-kappa words."""
        r = 1
        kap = 0
        for j, c in enumerate(word, start=1):
            kap += self.steps[c]
            r += sum(self.dim(j - 1, kap - self.steps[b]) for b in range(c))
        return r

    def unrank(self, n: int, kap: int, index: int) -> tuple[int, ...]:
        if not 1 <= index <= self.dim(n, kap):
            raise ValueError(f"index {index} outside tower ({n}, {kap})")
        word = [0] * n
        for level in range(n, 0, -1):
            for c, s in enumerate(self.steps):
                block = self.dim(level - 1, kap - s)
                if index <= block:
                    word[level - 1] = c
                    kap -= s
                    break
                index -= block
        return tuple(word)

    def is_successor(self, before, after) -> bool:
        """True if ``after`` is the immediate successor of ``before``.

        Letters of ``after`` beyond ``len(before)`` are the path's extension,
        which the adic map leaves untouched, so both words are compared in
        the tower at the length of ``after``.
        """
        if len(after) < len(before):
            return False
        full = tuple(before) + tuple(after[len(before):])
        return (self.kappa(full) == self.kappa(after)
                and self.rank(after) == self.rank(full) + 1)

    # -- fluctuation-curve nodes ------------------------------------------

    def rank1_block_sum(self, gvals, length: int, kap: int) -> int:
        """Sum of a first-letter function over all words of (length, kap)."""
        if length == 0:
            return 0
        return sum(v * self.dim(length - 1, kap - self.steps[a])
                   for a, v in enumerate(gvals) if v)

    def grid_nodes(self, n: int, kap: int, m: int):
        """Rank L and word of each depth-m node of the tower, sorted by L.

        A node is the lowest word under a top block u of m letters: the
        minimal word of the remaining bottom tower followed by u.
        """
        r = len(self.steps)
        bot = n - m
        nodes = []
        for u in product(range(r), repeat=m):
            rem = kap
            L = 1
            ok = True
            for idx in range(m - 1, -1, -1):
                level = bot + 1 + idx
                c = u[idx]
                L += sum(self.dim(level - 1, rem - self.steps[b]) for b in range(c))
                rem -= self.steps[c]
                if rem < 0:
                    ok = False
                    break
            if ok and rem <= bot * self.d:
                nodes.append((L, rem, u))
        nodes.sort()
        return nodes

    def partial_sum(self, gvals, word) -> int:
        """Sum of a first-letter function over the tower's words up to ``word``.

        Values are integers; rank-1 functions only.
        """
        total = gvals[word[0]]
        kap = 0
        for j, c in enumerate(word, start=1):
            kap += self.steps[c]
            for b in range(c):
                kbot = kap - self.steps[b]
                if j > 1:
                    total += self.rank1_block_sum(gvals, j - 1, kbot)
                elif kbot == 0:
                    total += gvals[b]
        return total


def classical_takagi(x: float, terms: int = 60) -> float:
    """sum_n dist(2^n x, Z) / 2^n, the classical Takagi curve."""
    total = 0.0
    for n in range(terms):
        y = (x * 2 ** n) % 1.0
        total += min(y, 1.0 - y) / 2 ** n
    return total


def encode(weights, word) -> float:
    """Left end of the word's coding interval, subdividing in label order."""
    lows = [0.0]
    for w in weights[:-1]:
        lows.append(lows[-1] + w)
    acc = 0.0
    scale = 1.0
    for c in word:
        acc += scale * lows[c]
        scale *= weights[c]
    return acc
