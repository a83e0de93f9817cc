"""The three workloads: fixed lists of ``polyadic`` CLI invocations.

Every random input (words, indices, path seeds, extra q values, odometer
function values) is drawn from the workload seed, so the same seed gives the
same argv lists.  Each op carries what its checker needs to know beyond the
op's own output.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from oracle import Tower, letter_steps

TOWER_POLY = (1, 1, 3)
RANK_LEVEL = 300
SUCC_LENGTH = 60
SUCC_STEPS = 20_000
CURVE_NMAX = 300
CURVE_M = 6
# A degree-2 extraction costs 0.06-1.6 s depending on the sampled path
# (how many candidate levels it walks before converging or giving up), so
# seed-drawn degree-2 paths put most of the seed-to-seed spread of wall_s,
# op_p50_s and op_tail_s into a handful of ops.  The (1,1,1) and (1,1,2)
# ops therefore run fixed panels of path seeds (seed 2 is the path of the
# A7/A8 tests); the (1,1) ops, whose cost hardly depends on the path, take
# their path seeds from the workload seed.  The list is kept to about 10 s
# so that a 30 s run times every op about three times.
PASCAL_PATHS = 16
PATH_PANELS = {(1, 1, 1): tuple(range(12)), (1, 1, 2): tuple(range(8))}
PARABOLA_D = 32
PARABOLA_GRID = 8 * (PARABOLA_D + 1)   # holds every boundary point i/(d+1)

WORKLOADS = ("tower", "curve", "takagi")


@dataclass
class Op:
    kind: str
    argv: list[str]
    info: dict = field(default_factory=dict)


def _poly_str(coeffs) -> str:
    return ",".join(str(a) for a in coeffs)


def _word_str(word) -> str:
    return "".join(str(c) for c in word)


def _write_g(path: Path, coeffs, N: int, values: dict) -> str:
    doc = {"poly": list(coeffs), "N": N, "values": values}
    path.write_text(json.dumps(doc, sort_keys=True))
    return str(path)


def tower_ops(rng: random.Random, inputs: Path) -> list[Op]:
    ops = [Op("dims", ["dims", "--poly", _poly_str(TOWER_POLY), "--nmax", "200"],
              {"coeffs": TOWER_POLY, "nmax": 200})]
    tower = Tower(TOWER_POLY, RANK_LEVEL)
    r = len(tower.steps)
    d = tower.d
    p = _poly_str(TOWER_POLY)
    for _ in range(12):
        word = tuple(rng.randrange(r) for _ in range(RANK_LEVEL))
        ops.append(Op("rank", ["rank", "--poly", p, "--word", _word_str(word)],
                      {"coeffs": TOWER_POLY, "word": word}))
    for _ in range(12):
        kap = rng.randint(0, RANK_LEVEL * d)
        index = rng.randint(1, tower.dim(RANK_LEVEL, kap))
        ops.append(Op("unrank", ["rank", "--poly", p, "--level", str(RANK_LEVEL),
                                 "--kappa", str(kap), "--index", str(index)],
                      {"coeffs": TOWER_POLY, "n": RANK_LEVEL, "kappa": kap,
                       "index": index}))
    for _ in range(5):
        # Redraw in the (never yet seen) case that the word sits within
        # SUCC_STEPS of either end of its tower, where the walk would run out.
        while True:
            start = tuple(rng.randrange(r) for _ in range(SUCC_LENGTH))
            kap = tower.kappa(start)
            pos = tower.rank(start)
            if SUCC_STEPS < pos and pos + SUCC_STEPS <= tower.dim(SUCC_LENGTH, kap):
                break
        target = tower.unrank(SUCC_LENGTH, kap, pos + SUCC_STEPS)
        ops.append(Op("succ", ["succ", "--poly", p, "--word", _word_str(start),
                               "--steps", str(SUCC_STEPS)],
                      {"expect": _word_str(target)}))
        ops.append(Op("succ", ["succ", "--poly", p, "--word", _word_str(target),
                               "--steps", str(SUCC_STEPS), "--pred"],
                      {"expect": _word_str(start)}))
    for _ in range(5):
        seed = rng.randrange(2 ** 31)
        ops.append(Op("orbit", ["orbit", "--poly", "1,1", "--q", "0.5", "--n", "40",
                                "--steps", "200", "--seed", str(seed)],
                      {"coeffs": (1, 1), "q": 0.5, "n": 40, "steps": 200}))
    return ops


def _k1_function(coeffs) -> dict:
    """g = -k1 on the first letter (the A8 setup), as word -> value."""
    d = len(coeffs) - 1
    return {str(c): -(d - s) for c, s in enumerate(letter_steps(coeffs)) if d - s}


def curve_ops(rng: random.Random, inputs: Path) -> list[Op]:
    systems = (
        ((1, 1), 0.5, {"0": 1}),            # A7: indicator of letter 0
        ((1, 1, 1), 0.25, _k1_function((1, 1, 1))),   # A8
        ((1, 1, 2), 0.25, _k1_function((1, 1, 2))),   # ROADMAP baseline system
    )
    ops = []
    for coeffs, q, values in systems:
        gfile = _write_g(inputs / f"g-{_poly_str(coeffs)}.json", coeffs, 1, values)
        gvals = [values.get(str(c), 0) for c in range(sum(coeffs))]
        seeds = PATH_PANELS.get(coeffs) or [rng.randrange(2 ** 31)
                                            for _ in range(PASCAL_PATHS)]
        for seed in seeds:
            ops.append(Op("curve", ["curve", "--poly", _poly_str(coeffs), "--q", str(q),
                                    "--g", gfile, "--m", str(CURVE_M),
                                    "--nmax", str(CURVE_NMAX), "--seed", str(seed)],
                          {"coeffs": coeffs, "q": q, "gvals": gvals}))
    gfile = inputs / "g-1,1.json"
    ops.append(Op("cohom", ["cohom", "--poly", "1,1", "--g", str(gfile), "--nmax", "200"],
                  {"verdict": "UNBOUNDED", "nmax": 200, "N": 1}))
    values = {f"{a}{b}": rng.randint(-3, 3) * 0.5 for a in range(3) for b in range(3)}
    odo = _write_g(inputs / "g-3.json", (3,), 2, values)
    ops.append(Op("cohom", ["cohom", "--poly", "3", "--g", odo, "--nmax", "14"],
                  {"verdict": "BOUNDED", "nmax": 14, "N": 2}))
    return ops


def takagi_ops(rng: random.Random, inputs: Path) -> list[Op]:
    ops = [Op("takagi", ["takagi", "--poly", "1,1", "--q", "0.5", "--k", "1"],
              {"coeffs": (1, 1), "q": 0.5, "k": 1, "grid": 256, "classical": True})]
    for k in (1, 3):
        ops.append(Op("takagi", ["takagi", "--poly", "1,1,2", "--q", "0.25", "--k", str(k)],
                      {"coeffs": (1, 1, 2), "q": 0.25, "k": k, "grid": 256}))
    for _ in range(36):
        q = round(rng.uniform(0.15, 0.35), 4)
        ops.append(Op("takagi", ["takagi", "--poly", "1,1,2", "--q", repr(q), "--k", "1"],
                      {"coeffs": (1, 1, 2), "q": q, "k": 1, "grid": 256}))
    ops.append(Op("parabola", ["parabola", "--d", str(PARABOLA_D),
                               "--grid", str(PARABOLA_GRID)],
                  {"d": PARABOLA_D, "grid": PARABOLA_GRID}))
    return ops


_BUILDERS = {"tower": tower_ops, "curve": curve_ops, "takagi": takagi_ops}


def build(workload: str, seed: int, inputs: Path) -> list[Op]:
    """Op list of a workload; input files are written under ``inputs``."""
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, inputs)
