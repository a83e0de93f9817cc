"""Command-line surface: reproducible CSV/JSON output for every module.

``main`` alone returns the exit code: 0, or 3 when a curve run degenerates or
fails to converge, or 1 for any other domain error; usage problems exit with 2
through argparse.  All randomness sits behind --seed; big integers are printed
as decimal strings.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from functools import cache
from itertools import chain, islice
from operator import add

from .errors import DegenerateCurve, NoConvergence, PolyadicError
from .ergodic import (CylFunction, cohomology_verdict, extract_limiting_curve)
from .measure import encode, letter_stream, measure_params, weight_residual
from .paths import (PathPrefix, _labels, _steps, jump, letter_table, path_column,
                    prefix_walk, unrank, word_from_string, word_to_string)
from .poly import DimTable, GenPolynomial, _count, vertex_source
from .takagi import parabola_profile, takagi_grid


def _poly_arg(text: str) -> GenPolynomial:
    try:
        return GenPolynomial.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _line(row) -> str:
    """One CSV row, \\n-ended, as csv.writer's default QUOTE_MINIMAL writes it.

    Numbers are written as ``str`` gives them (for a float, its ``repr``); only
    a text field can need quotes.
    """
    return ",".join([_field(v) if type(v) is str else str(v) for v in row]) + "\n"


def _field(text: str) -> str:
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _emit(args, header, lines, meta=None) -> None:
    """Write ``header`` unless None, then the \\n-ended ``lines`` as they come, to --out or stdout."""
    with open(args.out, "w") if args.out else nullcontext(sys.stdout) as fh:
        if header is not None:
            fh.write(_line(header))
        fh.writelines(lines)
    if meta is None:
        return
    if args.out:
        with open(args.out + ".meta.json", "w") as fh:
            json.dump(meta, fh, sort_keys=True, indent=2)
            fh.write("\n")
    else:
        sys.stderr.write(json.dumps(meta, sort_keys=True) + "\n")


def _load_g(path: str, poly: GenPolynomial) -> CylFunction:
    with open(path) as fh:
        _, g = CylFunction.from_json(fh.read(), poly)
    return g


def _cmd_dims(args, parser) -> None:
    # A budget refusal comes before any output, and a bad --out before level 1
    # is built: the table is built by one DimTable.extend once --out is open.
    table = DimTable(args.poly)
    table.admit(_count(args.nmax, "--nmax"))
    labels = [f",{k}," for k in range(args.nmax * args.poly.degree + 1)]

    def lines():    # each level is one string
        table.extend(args.nmax)
        for n in range(args.nmax + 1):
            yield f"{n}" + f"\n{n}".join(map(add, labels, map(str, table.row(n)))) + "\n"

    _emit(args, ("n", "k", "dim"), lines())


def _cmd_tq(args, parser) -> None:
    mp = measure_params(args.poly, args.q)
    lt = letter_table(args.poly)
    rows = [("q", repr(mp.q)), ("t", repr(mp.t)),
            ("residual", repr(weight_residual(args.poly, mp.q, mp.t)))]
    rows += [(f"letter{c}", f"kstep={lt.kstep[c]}", repr(w))
             for c, w in enumerate(mp.weights)]
    _emit(args, ("field", "value"), map(_line, rows))


def _cmd_rank(args, parser) -> None:
    unrank_args = (args.level, args.kappa, args.index)
    if args.word is not None:
        if any(v is not None for v in unrank_args):
            parser.error("rank takes --word or --level/--kappa/--index, not both")
        word = word_from_string(args.word, args.poly)
        source = path_column(word, args.poly)
        n, kap, rnk = 0, 0, 1               # the empty word
        for n, kap, rnk in prefix_walk(word, source):
            pass
        total = source.dim(n, kap)
    elif None in unrank_args:
        parser.error("rank needs --word, or --level/--kappa/--index")
    else:
        n, kap, rnk = _count(args.level, "--level"), args.kappa, args.index
        source = vertex_source(args.poly, n, kap)
        total = source.dim(n, kap)          # the descent drops level n as it walks
        word = unrank(n, kap, rnk, source)
    row = (word_to_string(word, args.poly), n, kap, str(rnk), str(total))
    _emit(args, ("word", "n", "kappa", "rank", "dim"), [_line(row)])


def _cmd_succ(args, parser) -> None:
    word = word_from_string(args.word, args.poly)
    word = jump(word, args.poly, _count(args.steps, "--steps"), -1 if args.pred else 1)
    _emit(args, None, [word_to_string(word, args.poly) + "\n"])


def _cmd_orbit(args, parser) -> None:
    if args.word is not None and args.n is not None:
        parser.error("orbit takes --word or --n, not both")
    if args.word is None and args.n is None:
        parser.error("orbit needs --word or --n")
    horizon, steps = _count(args.horizon, "--horizon"), _count(args.steps, "--steps")
    mp = measure_params(args.poly, args.q)
    word = () if args.word is None else word_from_string(args.word, args.poly)
    x = PathPrefix(word, extend=letter_stream(mp, args.seed), max_level=horizon)
    if args.n is not None:
        x.prefix(_count(args.n, "--n"))
    walk = chain((x,), islice(_steps(x, args.poly, 1), steps))
    # the start is checked or drawn in range, and _steps checks every letter it reads
    coder = (mp.weights,), (mp.lows,)
    rows = [(step, repr(encode(*coder, word)), _labels(word, len(mp.weights)))
            for step, word in enumerate(y.known() for y in walk)]
    _emit(args, ("step", "theta", "word"), map(_line, rows),
          meta={"poly": list(args.poly.coeffs), "q": args.q, "seed": args.seed})


def _cmd_curve(args, parser) -> None:
    nmax, m = _count(args.nmax, "--nmax"), _count(args.m, "--m")
    mp = measure_params(args.poly, args.q)
    g = _load_g(args.g, args.poly)
    x = PathPrefix((), extend=letter_stream(mp, args.seed), max_level=nmax)
    curve, diag = extract_limiting_curve(
        g, x, args.poly, eps=args.eps, delta=args.delta, m=m,
        tol=args.tol, n_max=nmax, mp=None if args.align < 0 else mp,
        align=max(args.align, 0))
    rows = zip(curve.xs, curve.ys)
    meta = {"n": curve.n, "kappa": curve.kappa, "m": curve.depth,
            "R": repr(curve.R), "seed": args.seed, "q": args.q,
            "poly": list(args.poly.coeffs), "levels": diag["levels"],
            "distances": diag["distances"],
            "converged_at": diag.get("converged_at")}
    _emit(args, ("x", "y"), map(_line, rows), meta)


def _cmd_cohom(args, parser) -> None:
    nmax, m = _count(args.nmax, "--nmax"), _count(args.m, "--m")
    g = _load_g(args.g, args.poly)
    verdict, series = cohomology_verdict(g, DimTable(args.poly), nmax, m)
    _emit(args, ("n", "R"), map(_line, series),
          meta={"verdict": verdict, "poly": list(args.poly.coeffs),
                "nmax": args.nmax, "m": args.m})
    sys.stderr.write(f"verdict: {verdict}\n")


def _cmd_takagi(args, parser) -> None:
    rows = takagi_grid(args.poly, args.q, args.k, args.grid, args.depth)
    _emit(args, ("x", "value"), map(_line, rows),
          meta={"poly": list(args.poly.coeffs), "q": args.q, "k": args.k,
                "depth": args.depth})


def _cmd_parabola(args, parser) -> None:
    rows = parabola_profile(args.d, args.grid, args.depth)
    _emit(args, ("x", "value", "parabola", "deviation"), map(_line, rows),
          meta={"d": args.d, "grid": args.grid, "depth": args.depth})


@cache     # one parser per process: main builds nine subcommands otherwise
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyadic",
        description="Polynomial adic systems: tables, dynamics, measures, curves")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, poly=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        if poly:
            p.add_argument("--poly", type=_poly_arg, required=True,
                           help="comma-separated positive coefficients, e.g. 1,1,3")
        p.add_argument("--out", help="write CSV here (plus .meta.json sidecar)")
        return p

    p = command("dims", _cmd_dims, "rows of the dimension table")
    p.add_argument("--nmax", type=int, required=True)

    p = command("tq", _cmd_tq, "weight-equation root and letter weights")
    p.add_argument("--q", type=float, required=True)

    p = command("rank", _cmd_rank, "rank a word, or unrank an index")
    p.add_argument("--word")
    p.add_argument("--level", type=int)
    p.add_argument("--kappa", type=int)
    p.add_argument("--index", type=int)

    p = command("succ", _cmd_succ, "successor (or predecessor) of a word")
    p.add_argument("--word", required=True)
    p.add_argument("--steps", type=int, default=1)
    p.add_argument("--pred", action="store_true")

    p = command("orbit", _cmd_orbit, "iterate the successor, emitting coded points")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--word")
    p.add_argument("--n", type=int, help="sample a prefix of this length")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--horizon", type=int, default=1000,
                   help="highest level a successor search may read")

    p = command("curve", _cmd_curve, "extract a limiting fluctuation curve")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--g", required=True, help="cylindric function JSON file")
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--m", type=int, default=6)
    p.add_argument("--tol", type=float, default=0.05)
    p.add_argument("--nmax", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--align", type=int, default=1,
                   help="vertex-ray window; negative walks the free-vertex candidates")

    p = command("cohom", _cmd_cohom, "normalizing-coefficient series and verdict")
    p.add_argument("--g", required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--m", type=int, default=4)

    depth_help = "most digits a point decodes: each stops at its proven horizon"
    p = command("takagi", _cmd_takagi, "derivative-family curve values on a grid")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--depth", type=int, default=60, help=depth_help)

    p = command("parabola", _cmd_parabola, "large-degree profile against x(1-x)",
                poly=False)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--depth", type=int, default=60, help=depth_help)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    # Exact integers are printed in full: lift the interpreter's cap on
    # int <-> str digits (Python >= 3.10.7) for the length of the command.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = parser.parse_args(argv)
        args.func(args, parser)
        return 0
    except (PolyadicError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3 if isinstance(exc, (NoConvergence, DegenerateCurve)) else 1
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
