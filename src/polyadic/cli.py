"""Command-line surface: reproducible CSV/JSON output for every module.

Exit codes: 2 for usage problems, 3 when a curve run degenerates or fails to
converge, 1 for any other domain error.  All randomness sits behind --seed;
big integers are printed as decimal strings.
"""

from __future__ import annotations

import argparse
import csv
import decimal
import io
import json
import sys

from .errors import DegenerateCurve, NoConvergence, PolyadicError
from .ergodic import (CylFunction, cohomology_verdict, extract_limiting_curve)
from .measure import (encode_theta, letter_stream, measure_params,
                      weight_residual)
from .paths import (PathPrefix, kappa, letter_table, predecessor, rank,
                    successor, unrank, word_from_string, word_to_string)
from .poly import GenPolynomial, build_dim_table
from .takagi import parabola_profile, takagi_function


def _decimal_str(x: float) -> str:
    """Plain decimal rendering, no exponent, for very large reals."""
    return format(decimal.Decimal(repr(x)), "f")


def _poly_arg(text: str) -> GenPolynomial:
    try:
        return GenPolynomial.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _emit(args, header, rows, meta=None) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    text = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        if meta is not None:
            with open(args.out + ".meta.json", "w") as fh:
                json.dump(meta, fh, sort_keys=True, indent=2)
                fh.write("\n")
    else:
        sys.stdout.write(text)
        if meta is not None:
            sys.stderr.write(json.dumps(meta, sort_keys=True) + "\n")


def _load_g(path: str, poly: GenPolynomial) -> CylFunction:
    with open(path) as fh:
        _, g = CylFunction.from_json(fh.read(), poly)
    return g


def _cmd_dims(args) -> int:
    table = build_dim_table(args.poly, args.nmax)
    rows = [(n, k, str(table.dim(n, k)))
            for n in range(args.nmax + 1)
            for k in range(n * args.poly.degree + 1)]
    _emit(args, ("n", "k", "dim"), rows)
    return 0


def _cmd_tq(args) -> int:
    mp = measure_params(args.poly, args.q)
    lt = letter_table(args.poly)
    rows = [("q", repr(mp.q)), ("t", repr(mp.t)),
            ("residual", repr(weight_residual(args.poly, mp.q, mp.t)))]
    rows += [(f"letter{c}", f"kstep={lt.kstep[c]}", repr(w))
             for c, w in enumerate(mp.weights)]
    _emit(args, ("field", "value"), rows)
    return 0


def _cmd_rank(args, parser) -> int:
    need = max(args.nmax, args.level or 0,
               len(word_from_string(args.word, args.poly)) if args.word else 0)
    table = build_dim_table(args.poly, need)
    if args.word is not None:
        word = word_from_string(args.word, args.poly)
        kap = kappa(word, args.poly)
        _emit(args, ("word", "n", "kappa", "rank", "dim"),
              [(word_to_string(word, args.poly), len(word), kap,
                str(rank(word, table)), str(table.dim(len(word), kap)))])
        return 0
    if args.level is None or args.kappa is None or args.index is None:
        parser.error("rank needs --word, or --level/--kappa/--index")
    word = unrank(args.level, args.kappa, args.index, table)
    _emit(args, ("word", "n", "kappa", "rank", "dim"),
          [(word_to_string(word, args.poly), args.level, args.kappa,
            str(args.index), str(table.dim(args.level, args.kappa)))])
    return 0


def _cmd_succ(args) -> int:
    table = build_dim_table(args.poly, max(args.nmax, len(args.word) + 2))
    word = word_from_string(args.word, args.poly)
    x = PathPrefix(word)
    step = predecessor if args.pred else successor
    for _ in range(args.steps):
        x = step(x, table)
    out = word_to_string(x.known(), args.poly)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out + "\n")
    else:
        print(out)
    return 0


def _cmd_orbit(args, parser) -> int:
    table = build_dim_table(args.poly, args.horizon)
    mp = measure_params(args.poly, args.q)
    if args.word:
        x = PathPrefix(word_from_string(args.word, args.poly),
                       extend=letter_stream(mp, args.seed), max_level=args.horizon)
    elif args.n:
        x = PathPrefix((), extend=letter_stream(mp, args.seed), max_level=args.horizon)
        x.prefix(args.n)
    else:
        parser.error("orbit needs --word or --n")
    rows = []
    for step in range(args.steps + 1):
        rows.append((step, repr(encode_theta(mp, x.known())),
                     word_to_string(x.known(), args.poly)))
        if step < args.steps:
            x = successor(x, table)
    _emit(args, ("step", "theta", "word"), rows,
          meta={"poly": list(args.poly.coeffs), "q": args.q, "seed": args.seed})
    return 0


def _cmd_curve(args) -> int:
    table = build_dim_table(args.poly, args.nmax)
    mp = measure_params(args.poly, args.q)
    g = _load_g(args.g, args.poly)
    x = PathPrefix((), extend=letter_stream(mp, args.seed), max_level=args.nmax)
    curve, diag = extract_limiting_curve(
        g, x, table, eps=args.eps, delta=args.delta, m=args.m, tol=args.tol,
        n_max=args.nmax, mp=None if args.align < 0 else mp, align=max(args.align, 0))
    rows = list(zip((repr(v) for v in curve.xs), (repr(v) for v in curve.ys)))
    meta = {"n": curve.n, "kappa": curve.kappa, "m": curve.depth,
            "R": _decimal_str(curve.R), "seed": args.seed, "q": args.q,
            "poly": list(args.poly.coeffs), "levels": diag["levels"],
            "distances": diag["distances"],
            "converged_at": diag.get("converged_at")}
    _emit(args, ("x", "y"), rows, meta)
    return 0


def _cmd_cohom(args) -> int:
    table = build_dim_table(args.poly, args.nmax)
    g = _load_g(args.g, args.poly)
    verdict, series = cohomology_verdict(g, table, args.nmax, args.m)
    rows = [(n, repr(r)) for n, r in series]
    _emit(args, ("n", "R"), rows,
          meta={"verdict": verdict, "poly": list(args.poly.coeffs),
                "nmax": args.nmax, "m": args.m})
    sys.stderr.write(f"verdict: {verdict}\n")
    return 0


def _cmd_takagi(args) -> int:
    if args.grid < 1:
        raise ValueError("grid must be >= 1")
    rows = []
    for i in range(args.grid + 1):
        x = i / args.grid
        rows.append((repr(x),
                     repr(takagi_function(args.poly, args.q, args.k, x, args.depth))))
    _emit(args, ("x", "value"), rows,
          meta={"poly": list(args.poly.coeffs), "q": args.q, "k": args.k,
                "depth": args.depth})
    return 0


def _cmd_parabola(args) -> int:
    rows = [(repr(x), repr(v), repr(p), repr(dev))
            for x, v, p, dev in parabola_profile(args.d, args.grid, args.depth)]
    _emit(args, ("x", "value", "parabola", "deviation"), rows,
          meta={"d": args.d, "grid": args.grid, "depth": args.depth})
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyadic",
        description="Polynomial adic systems: tables, dynamics, measures, curves")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, poly=True, out=True):
        if poly:
            p.add_argument("--poly", type=_poly_arg, required=True,
                           help="comma-separated positive coefficients, e.g. 1,1,3")
        if out:
            p.add_argument("--out", help="write CSV here (plus .meta.json sidecar)")

    p = sub.add_parser("dims", help="rows of the dimension table")
    common(p)
    p.add_argument("--nmax", type=int, required=True)

    p = sub.add_parser("tq", help="weight-equation root and letter weights")
    common(p)
    p.add_argument("--q", type=float, required=True)

    p = sub.add_parser("rank", help="rank a word, or unrank an index")
    common(p)
    p.add_argument("--word")
    p.add_argument("--level", type=int)
    p.add_argument("--kappa", type=int)
    p.add_argument("--index", type=int)
    p.add_argument("--nmax", type=int, default=64)

    p = sub.add_parser("succ", help="successor (or predecessor) of a word")
    common(p)
    p.add_argument("--word", required=True)
    p.add_argument("--steps", type=int, default=1)
    p.add_argument("--pred", action="store_true")
    p.add_argument("--nmax", type=int, default=64)

    p = sub.add_parser("orbit", help="iterate the successor, emitting coded points")
    common(p)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--word")
    p.add_argument("--n", type=int, help="sample a prefix of this length")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--horizon", type=int, default=1000)

    p = sub.add_parser("curve", help="extract a limiting fluctuation curve")
    common(p)
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

    p = sub.add_parser("cohom", help="normalizing-coefficient series and verdict")
    common(p)
    p.add_argument("--g", required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--m", type=int, default=4)

    p = sub.add_parser("takagi", help="derivative-family curve values on a grid")
    common(p)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--depth", type=int, default=60)

    p = sub.add_parser("parabola", help="large-degree profile against x(1-x)")
    common(p, poly=False)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--depth", type=int, default=60)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "dims":
            return _cmd_dims(args)
        if args.command == "tq":
            return _cmd_tq(args)
        if args.command == "rank":
            return _cmd_rank(args, parser)
        if args.command == "succ":
            return _cmd_succ(args)
        if args.command == "orbit":
            return _cmd_orbit(args, parser)
        if args.command == "curve":
            return _cmd_curve(args)
        if args.command == "cohom":
            return _cmd_cohom(args)
        if args.command == "takagi":
            return _cmd_takagi(args)
        if args.command == "parabola":
            return _cmd_parabola(args)
        parser.error(f"unknown command {args.command}")
    except (NoConvergence, DegenerateCurve) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (PolyadicError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
