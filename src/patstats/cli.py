"""Command-line interface with machine-readable output.

Every invocation prints one record with the stable field set
{command, kind, inputs, result, provenance} as JSON (default) or CSV.
Exact values are emitted as decimal strings, never as floats.  Exit codes:
0 success, 1 domain error (violated precondition, bad input), 2 budget or
tolerance failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from . import asymptotics, bounds, genfunc, oracle, search
from .asymptotics import MeanKind
from .errors import BudgetExceededError, ToleranceError
from .oracle import CountKind
from .reproduce import reproduce_report
from .search import SearchBudget, SearchStatus
from .words import Pattern, PartialWord, Word


class CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; that code is reserved for
    # budget/tolerance failures here, so route usage errors through CliError.
    def error(self, message):
        raise CliError(message)


_COUNT_KINDS = {k.value: k for k in CountKind}
_MEAN_KINDS = {k.value: k for k in MeanKind}


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"cannot parse {text!r} as an exact fraction") from exc


def _parse_word(text: str, m: int, kind: CountKind, hole_char: str):
    if kind in oracle.PARTIAL_KINDS:
        return PartialWord.from_text(text, m, hole_char)
    return Word.from_text(text, m)


def _format_value(value):
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, Fraction)):
        text = bounds._decimal(value.numerator)
        if value.denominator == 1:
            return text
        return f"{text}/{bounds._decimal(value.denominator)}"
    if isinstance(value, bounds.BoundValue):
        if value.is_exact:
            return str(value)
        return {"overflow_beyond_digits": value.overflow_cap}
    return value


def _emit(record: dict, fmt: str, output: str | None) -> None:
    if fmt == "json":
        text = json.dumps(record, indent=2, default=str)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        rows = record["result"] if isinstance(record["result"], list) \
            else [{"result": record["result"]}]
        header = ["command", "kind", "inputs"] + list(rows[0].keys()) + ["provenance"]
        writer.writerow(header)
        inputs = ";".join(f"{k}={v}" for k, v in record["inputs"].items())
        for row in rows:
            cells = [record["command"], record["kind"], inputs]
            cells += [row[k] for k in rows[0].keys()]
            cells.append(record["provenance"])
            writer.writerow(cells)
        text = buf.getvalue().rstrip("\n")
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _record(command: str, kind: str | None, inputs: dict, result, provenance: str) -> dict:
    return {
        "command": command,
        "kind": kind,
        "inputs": {k: str(v) if isinstance(v, (Fraction,)) else v
                   for k, v in inputs.items() if v is not None},
        "result": _format_value(result),
        "provenance": provenance,
    }


def build_parser() -> _Parser:
    top = _Parser(prog="patstats", description=__doc__)
    top.add_argument("--format", choices=("json", "csv"), default="json")
    top.add_argument("--output", help="write the record to a file instead of stdout")
    top.add_argument("--hole-char", default=".", help="hole character on input (default '.')")
    top.add_argument("--threads", type=int, default=1,
                     help="worker processes for oracle totals")
    sub = top.add_subparsers(dest="command", required=True)

    ora = sub.add_parser("oracle", help="brute-force exact counting")
    ora_sub = ora.add_subparsers(dest="subcommand", required=True)
    for name in ("count", "total", "mean"):
        pp = ora_sub.add_parser(name)
        pp.add_argument("--kind", required=True, choices=sorted(_COUNT_KINDS))
        pp.add_argument("-p", "--pattern", required=True)
        pp.add_argument("-m", "--alphabet", type=int, required=True)
        if name == "count":
            pp.add_argument("-w", "--word", required=True)
        else:
            pp.add_argument("-n", "--length", type=int, required=True)
            pp.add_argument("--holes", type=int)
            pp.add_argument("--budget", type=int, default=oracle.DEFAULT_WORD_BUDGET)
        if name == "mean":
            pp.add_argument("--strict", action="store_true")

    co = sub.add_parser("coeff", help="exact series coefficients")
    co.add_argument("--kind", required=True,
                    choices=("full", "partial", "abelian", "bivariate"))
    co.add_argument("-p", "--pattern", required=True)
    co.add_argument("-m", "--alphabet", type=int, required=True)
    co.add_argument("-n", "--index", type=int, required=True)
    co.add_argument("--holes", type=int)
    co.add_argument("--order", type=int)

    st = sub.add_parser("stats", help="closed-form asymptotic means")
    st.add_argument("--kind", required=True,
                    choices=sorted(_MEAN_KINDS) + ["abelian-rs"])
    st.add_argument("-p", "--pattern", required=True)
    st.add_argument("-m", "--alphabet", type=int, required=True)
    st.add_argument("-n", "--length", type=int, required=True)
    st.add_argument("-d", "--density")
    st.add_argument("--eps", type=float, default=asymptotics.DEFAULT_ABELIAN_EPS)

    bo = sub.add_parser("bounds", help="forcing-length bound calculators")
    bo_sub = bo.add_subparsers(dest="subcommand", required=True)
    up = bo_sub.add_parser("uparrow")
    up.add_argument("-x", type=int, required=True)
    up.add_argument("-y", type=int, required=True)
    up.add_argument("--cap", type=int, default=bounds.DEFAULT_DIGIT_CAP)
    zu = bo_sub.add_parser("zimin-upper")
    zu.add_argument("-m", "--alphabet", type=int, required=True)
    zu.add_argument("-i", "--index", type=int, required=True)
    zu.add_argument("--mode", choices=("recursive", "tetration"), default="recursive")
    zu.add_argument("--cap", type=int, default=bounds.DEFAULT_DIGIT_CAP)
    zl = bo_sub.add_parser("zimin-lower")
    zl.add_argument("--kind", required=True, choices=("full", "abelian", "density"))
    zl.add_argument("-m", "--alphabet", type=int, required=True)
    zl.add_argument("-i", "--index", type=int, required=True)
    zl.add_argument("-d", "--density")
    zl.add_argument("--eps", type=float, default=asymptotics.DEFAULT_ABELIAN_EPS)
    th = bo_sub.add_parser("threshold")
    th.add_argument("--kind", required=True, choices=sorted(_MEAN_KINDS))
    th.add_argument("-p", "--pattern", required=True)
    th.add_argument("-m", "--alphabet", type=int, required=True)
    th.add_argument("-d", "--density")
    th.add_argument("--eps", type=float, default=asymptotics.DEFAULT_ABELIAN_EPS)
    et = bo_sub.add_parser("exact-threshold")
    et.add_argument("--kind", required=True, choices=("full", "abelian", "partial-collapsed"))
    et.add_argument("-p", "--pattern", required=True)
    et.add_argument("-m", "--alphabet", type=int, required=True)
    et.add_argument("--n-max", type=int, required=True)

    se = sub.add_parser("search", help="avoiding-word search and exact forcing lengths")
    se_sub = se.add_subparsers(dest="subcommand", required=True)
    sf = se_sub.add_parser("find")
    sf.add_argument("--kind", required=True, choices=sorted(_COUNT_KINDS))
    sf.add_argument("-p", "--pattern", required=True)
    sf.add_argument("-m", "--alphabet", type=int, required=True)
    sf.add_argument("-n", "--length", type=int, required=True)
    sf.add_argument("--holes", type=int)
    sf.add_argument("--budget", type=int, default=SearchBudget().max_nodes)
    sr = se_sub.add_parser("ramsey")
    sr.add_argument("--kind", required=True, choices=("full", "abelian"))
    sr.add_argument("-p", "--pattern", required=True)
    sr.add_argument("-m", "--alphabet", type=int, required=True)
    sr.add_argument("--n-max", type=int, required=True)
    sr.add_argument("--budget", type=int, default=SearchBudget().max_nodes)

    sub.add_parser("reproduce", help="recompute the bundled reference-value table")
    return top


def _run_oracle(args) -> dict:
    kind = _COUNT_KINDS[args.kind]
    p = Pattern.from_text(args.pattern)
    if args.subcommand == "count":
        w = _parse_word(args.word, args.alphabet, kind, args.hole_char)
        result = oracle.count(kind, w, p)
        inputs = {"word": args.word, "pattern": args.pattern, "m": args.alphabet}
        return _record("oracle count", kind.value, inputs, result,
                       "brute-force occurrence count")
    if args.subcommand == "total":
        result = oracle.total_count(kind, args.length, args.alphabet, p,
                                    holes=args.holes, budget=args.budget,
                                    workers=args.threads)
        inputs = {"n": args.length, "m": args.alphabet, "pattern": args.pattern,
                  "holes": args.holes}
        return _record("oracle total", kind.value, inputs, result,
                       "occurrence total over every word of the shape")
    result = oracle.mean_exact(kind, args.length, args.alphabet, p,
                               holes=args.holes, strict=args.strict,
                               budget=args.budget, workers=args.threads)
    inputs = {"n": args.length, "m": args.alphabet, "pattern": args.pattern,
              "holes": args.holes, "strict": args.strict or None}
    return _record("oracle mean", kind.value, inputs, result,
                   "exact mean occurrence count (total / population)")


def _run_coeff(args) -> dict:
    p = Pattern.from_text(args.pattern)
    order = args.order if args.order is not None else args.index
    if args.index > order:
        raise CliError("coefficient index exceeds the truncation order")
    inputs = {"pattern": args.pattern, "m": args.alphabet, "n": args.index,
              "holes": args.holes, "order": order}
    if args.kind == "bivariate":
        if args.holes is None:
            raise CliError("bivariate coefficients need --holes")
        series = genfunc.ogf_bivariate(p, args.alphabet, order)
        value = series.coeff_hole(args.index, args.holes)
        return _record("coeff", args.kind, inputs, value,
                       "exact coefficient of the hole-marked series")
    ser_kind = {"full": CountKind.FULL, "partial": CountKind.PARTIAL_COLLAPSED,
                "abelian": CountKind.ABELIAN}[args.kind]
    series = genfunc.ogf_build(ser_kind, p, args.alphabet, order)
    value = genfunc.coeff(series, args.index)
    return _record("coeff", args.kind, inputs, value,
                   "exact coefficient of the occurrence-total series")


def _run_stats(args) -> dict:
    p = Pattern.from_text(args.pattern)
    d = _parse_fraction(args.density) if args.density is not None else None
    inputs = {"pattern": args.pattern, "m": args.alphabet, "n": args.length, "d": d}
    if args.kind == "abelian-rs":
        value = asymptotics.abelian_rs_approx_mean(p, args.alphabet, args.length)
        return _record("stats", args.kind, inputs, value,
                       "abelian mean via the large-block envelope")
    mean = asymptotics.mean_asymptotic(_MEAN_KINDS[args.kind], p, args.alphabet,
                                       args.length, d=d, eps=args.eps)
    return _record("stats", args.kind, inputs, mean.value,
                   "closed-form leading-term mean occurrence count")


def _run_bounds(args) -> dict:
    if args.subcommand == "uparrow":
        value = bounds.double_uparrow(args.x, args.y, args.cap)
        return _record("bounds uparrow", None, {"x": args.x, "y": args.y, "cap": args.cap},
                       value, "iterated exponentiation")
    if args.subcommand == "zimin-upper":
        value = bounds.zimin_upper(args.alphabet, args.index, args.mode, args.cap)
        inputs = {"m": args.alphabet, "i": args.index, "mode": args.mode}
        return _record("bounds zimin-upper", args.mode, inputs, value,
                       "upper bound on the Zimin forcing length")
    if args.subcommand == "zimin-lower":
        d = _parse_fraction(args.density) if args.density is not None else None
        value = bounds.zimin_lower(_MEAN_KINDS[args.kind], args.alphabet, args.index,
                                   d=d, eps=args.eps)
        inputs = {"m": args.alphabet, "i": args.index, "d": d}
        return _record("bounds zimin-lower", args.kind, inputs, value,
                       "first-moment lower bound on the Zimin forcing length")
    if args.subcommand == "threshold":
        d = _parse_fraction(args.density) if args.density is not None else None
        p = Pattern.from_text(args.pattern)
        value = bounds.avoidance_threshold(_MEAN_KINDS[args.kind], p, args.alphabet,
                                           d=d, eps=args.eps)
        inputs = {"pattern": args.pattern, "m": args.alphabet, "d": d}
        return _record("bounds threshold", args.kind, inputs, value,
                       "first-moment avoidance length bound")
    kind = {"full": CountKind.FULL, "abelian": CountKind.ABELIAN,
            "partial-collapsed": CountKind.PARTIAL_COLLAPSED}[args.kind]
    p = Pattern.from_text(args.pattern)
    value = bounds.exact_avoidance_threshold(kind, p, args.alphabet, args.n_max)
    inputs = {"pattern": args.pattern, "m": args.alphabet, "n_max": args.n_max}
    return _record("bounds exact-threshold", args.kind, inputs, value,
                   "largest length with exact mean occurrence count below 1")


def _run_search(args) -> dict:
    kind = _COUNT_KINDS[args.kind]
    p = Pattern.from_text(args.pattern)
    budget = SearchBudget(max_nodes=args.budget)
    if args.subcommand == "find":
        outcome = search.find_avoiding(kind, p, args.alphabet, args.length,
                                       holes=args.holes, budget=budget)
        witness = None
        if outcome.status is SearchStatus.FOUND:
            w = outcome.witness
            if args.alphabet <= 26:
                witness = w.to_text(args.hole_char) if isinstance(w, PartialWord) else w.to_text()
            else:
                witness = list(w.chars if isinstance(w, PartialWord) else w.letters)
        result = {"status": outcome.status.value, "witness": witness,
                  "nodes": outcome.nodes}
        inputs = {"pattern": args.pattern, "m": args.alphabet, "length": args.length,
                  "holes": args.holes}
        return _record("search find", kind.value, inputs, result,
                       "backtracking avoiding-word search, oracle-verified")
    length = search.exact_ramsey_length(kind, p, args.alphabet, args.n_max, budget)
    inputs = {"pattern": args.pattern, "m": args.alphabet, "n_max": args.n_max}
    result = {"ramsey_length": length, "searched_up_to": args.n_max}
    return _record("search ramsey", kind.value, inputs, result,
                   "exact forcing length by exhaustive search")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "oracle":
            record = _run_oracle(args)
        elif args.command == "coeff":
            record = _run_coeff(args)
        elif args.command == "stats":
            record = _run_stats(args)
        elif args.command == "bounds":
            record = _run_bounds(args)
        elif args.command == "search":
            record = _run_search(args)
        else:
            rows = reproduce_report()
            record = _record("reproduce", None, {}, rows,
                             "bundled reference values vs recomputed values")
            _emit(record, args.format, args.output)
            return 0 if all(r["ok"] for r in rows) else 2
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceededError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 2
    except ToleranceError as exc:
        print(f"tolerance error: {exc} (partial value {exc.partial})", file=sys.stderr)
        return 2
    _emit(record, args.format, args.output)
    return 0


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
