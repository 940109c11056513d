"""Command-line interface with machine-readable output.

Every invocation prints one record with the stable field set
{command, kind, inputs, result, provenance} as JSON (default) or CSV.
The inputs are the command's own options as parsed, in the order they are
declared, each under its destination name (-m/--alphabet as m, -n as n or
length); they leave out --kind, which is the record's kind, the work limits
--budget and --eps, the global --format and --threads, values left unset and
flags not given.  Fractions among them are strings.  Exact values are emitted
as decimal strings, never as floats, and a non-finite float result as the
string float() reads back ("inf").  A library warning prints to stderr as
one "warning:" line.  Exit codes: 0 success, 1 domain error (violated
precondition, bad input), 2 budget or tolerance failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import warnings
from fractions import Fraction

from . import asymptotics, bounds, genfunc, oracle, search
from .asymptotics import MeanKind
from .errors import BudgetExceededError, ToleranceError
from .oracle import CountKind
from .reproduce import reproduce_report
from .search import DEFAULT_NODE_BUDGET, SearchStatus
from .words import Pattern, PartialWord, Word


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; that code is reserved for
    # budget/tolerance failures here, so a usage error is a domain error (exit 1).
    def error(self, message):
        raise ValueError(message)


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"cannot parse {text!r} as an exact fraction") from exc


def _format_value(value):
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)  # JSON has no Infinity
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


def _emit(record: dict, fmt: str) -> None:
    if fmt == "json":
        text = json.dumps(record, indent=2, default=str, allow_nan=False)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        rows = record["result"]
        if not isinstance(rows, list):  # a dict result is one row with its keys as columns
            rows = [rows if isinstance(rows, dict) else {"result": rows}]
        writer.writerow(["command", "kind", "inputs"] + list(rows[0].keys()) + ["provenance"])
        inputs = ";".join(f"{k}={v}" for k, v in record["inputs"].items())
        for row in rows:
            cells = [record["command"], record["kind"], inputs]
            cells += [";".join(map(str, row[k])) if isinstance(row[k], list) else row[k]
                      for k in rows[0].keys()]
            cells.append(record["provenance"])
            writer.writerow(cells)
        text = buf.getvalue().rstrip("\n")
    print(text)


def _leaf(parent, name: str, run, kinds=None, **kwargs) -> _Parser:
    """A command parser whose handler `run` returns (result, provenance) for
    main's record; given kinds, it takes --kind, -p and -m."""
    pp = parent.add_parser(name, **kwargs)
    pp.set_defaults(run=run)
    if kinds is not None:
        pp.add_argument("--kind", required=True, choices=kinds)
        pp.add_argument("-p", "--pattern", required=True)
        pp.add_argument("-m", "--alphabet", dest="m", type=int, required=True)
    return pp


def build_parser() -> _Parser:
    top = _Parser(prog="patstats", description=__doc__)
    top.add_argument("--format", choices=("json", "csv"), default="json")
    top.add_argument("--threads", type=int, default=1,
                     help="worker processes for oracle totals")
    sub = top.add_subparsers(dest="command", required=True)
    counts = sorted(k.value for k in CountKind)
    means = sorted(k.value for k in MeanKind)

    ora = sub.add_parser("oracle", help="brute-force exact counting")
    ora_sub = ora.add_subparsers(dest="subcommand", required=True)
    oc = _leaf(ora_sub, "count", _oracle_count, counts)
    oc.add_argument("-w", "--word", required=True)
    for name, run in (("total", _oracle_total), ("mean", _oracle_mean)):
        pp = _leaf(ora_sub, name, run, counts)
        pp.add_argument("-n", "--length", dest="n", type=int, required=True)
        pp.add_argument("--holes", type=int)
        pp.add_argument("--budget", type=int, default=oracle.DEFAULT_WORD_BUDGET)
        if name == "mean":
            pp.add_argument("--strict", action="store_true")

    co = _leaf(sub, "coeff", _coeff, ("full", "partial", "abelian", "bivariate"),
               help="exact series coefficients")
    co.add_argument("-n", "--index", dest="n", type=int, required=True)
    co.add_argument("--holes", type=int)

    st = _leaf(sub, "stats", _stats, means + ["abelian-rs"],
               help="closed-form asymptotic means")
    st.add_argument("-n", "--length", dest="n", type=int, required=True)
    st.add_argument("-d", "--density", dest="d", type=_parse_fraction)
    st.add_argument("--eps", type=float, default=asymptotics.DEFAULT_ABELIAN_EPS)

    bo = sub.add_parser("bounds", help="forcing-length bound calculators")
    bo_sub = bo.add_subparsers(dest="subcommand", required=True)
    up = _leaf(bo_sub, "uparrow", _uparrow)
    up.add_argument("-x", type=int, required=True)
    up.add_argument("-y", type=int, required=True)
    up.add_argument("--cap", type=int, default=bounds.DEFAULT_DIGIT_CAP)
    zu = _leaf(bo_sub, "zimin-upper", _zimin_upper)
    zu.add_argument("-m", "--alphabet", dest="m", type=int, required=True)
    zu.add_argument("-i", "--index", dest="i", type=int, required=True)
    # the record's kind is the mode
    zu.add_argument("--mode", dest="kind", choices=("recursive", "tetration"),
                    default="recursive")
    zu.add_argument("--cap", type=int, default=bounds.DEFAULT_DIGIT_CAP)
    zl = _leaf(bo_sub, "zimin-lower", _zimin_lower)
    zl.add_argument("--kind", required=True, choices=("full", "abelian", "density"))
    zl.add_argument("-m", "--alphabet", dest="m", type=int, required=True)
    zl.add_argument("-i", "--index", dest="i", type=int, required=True)
    zl.add_argument("-d", "--density", dest="d", type=_parse_fraction)
    zl.add_argument("--eps", type=float, default=asymptotics.DEFAULT_ABELIAN_EPS)
    th = _leaf(bo_sub, "threshold", _threshold, means)
    th.add_argument("-d", "--density", dest="d", type=_parse_fraction)
    th.add_argument("--eps", type=float, default=asymptotics.DEFAULT_ABELIAN_EPS)
    et = _leaf(bo_sub, "exact-threshold", _exact_threshold,
               ("full", "abelian", "partial-collapsed"))
    et.add_argument("--n-max", type=int, required=True)

    se = sub.add_parser("search", help="avoiding-word search and exact forcing lengths")
    se_sub = se.add_subparsers(dest="subcommand", required=True)
    sf = _leaf(se_sub, "find", _search_find, counts)
    sf.add_argument("-n", "--length", type=int, required=True)
    sf.add_argument("--holes", type=int)
    sf.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    sr = _leaf(se_sub, "ramsey", _search_ramsey, ("full", "abelian"))
    sr.add_argument("--n-max", type=int, required=True)
    sr.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)

    _leaf(sub, "reproduce", _reproduce, help="recompute the bundled reference-value table")
    return top


def _oracle_count(args) -> tuple[object, str]:
    kind = CountKind(args.kind)
    if kind in oracle.PARTIAL_KINDS:
        w = PartialWord.from_text(args.word, args.m)
    else:
        w = Word.from_text(args.word, args.m)
    return oracle.count(kind, w, Pattern.from_text(args.pattern)), "brute-force occurrence count"


def _oracle_total(args) -> tuple[object, str]:
    result = oracle.total_count(CountKind(args.kind), args.n, args.m,
                                Pattern.from_text(args.pattern), holes=args.holes,
                                budget=args.budget, workers=args.threads)
    return result, "occurrence total over every word of the shape"


def _oracle_mean(args) -> tuple[object, str]:
    result = oracle.mean_exact(CountKind(args.kind), args.n, args.m,
                               Pattern.from_text(args.pattern), holes=args.holes,
                               strict=args.strict, budget=args.budget, workers=args.threads)
    return result, "exact mean occurrence count (total / population)"


def _coeff(args) -> tuple[object, str]:
    if args.n < 0:
        raise ValueError(f"coefficient index -n must be >= 0, got {args.n}")
    p = Pattern.from_text(args.pattern)
    if args.kind == "bivariate":
        series = genfunc.ogf_bivariate(p, args.m, args.n)
        provenance = "exact coefficient of the hole-marked series"
    else:
        ser_kind = {"full": CountKind.FULL, "partial": CountKind.PARTIAL_COLLAPSED,
                    "abelian": CountKind.ABELIAN}[args.kind]
        series = genfunc.ogf_build(ser_kind, p, args.m, args.n)
        provenance = "exact coefficient of the occurrence-total series"
    return genfunc.coeff(series, args.n, args.holes), provenance


def _stats(args) -> tuple[object, str]:
    p = Pattern.from_text(args.pattern)
    if args.kind == "abelian-rs":
        if args.d is not None:
            raise ValueError("abelian-rs takes no density")
        value = asymptotics.abelian_rs_approx_mean(p, args.m, args.n)
        return value, "abelian mean via the large-block envelope"
    mean = asymptotics.mean_asymptotic(MeanKind(args.kind), p, args.m, args.n, d=args.d,
                                       eps=args.eps)
    return mean.value, "closed-form leading-term mean occurrence count"


def _uparrow(args) -> tuple[object, str]:
    return bounds.double_uparrow(args.x, args.y, args.cap), "iterated exponentiation"


def _zimin_upper(args) -> tuple[object, str]:
    value = bounds.zimin_upper(args.m, args.i, args.kind, args.cap)
    return value, "upper bound on the Zimin forcing length"


def _zimin_lower(args) -> tuple[object, str]:
    value = bounds.zimin_lower(MeanKind(args.kind), args.m, args.i, d=args.d, eps=args.eps)
    return value, "first-moment lower bound on the Zimin forcing length"


def _threshold(args) -> tuple[object, str]:
    value = bounds.avoidance_threshold(MeanKind(args.kind), Pattern.from_text(args.pattern),
                                       args.m, d=args.d, eps=args.eps)
    return value, "first-moment avoidance length bound"


def _exact_threshold(args) -> tuple[object, str]:
    value = bounds.exact_avoidance_threshold(CountKind(args.kind),
                                             Pattern.from_text(args.pattern), args.m,
                                             args.n_max)
    return value, "largest length with exact mean occurrence count below 1"


def _search_find(args) -> tuple[object, str]:
    outcome = search.find_avoiding(CountKind(args.kind), Pattern.from_text(args.pattern),
                                   args.m, args.length, holes=args.holes, budget=args.budget)
    witness = None
    if outcome.status is SearchStatus.FOUND:
        w = outcome.witness
        if args.m <= 26:
            witness = w.to_text()
        else:
            witness = list(w.chars if isinstance(w, PartialWord) else w.letters)
    result = {"status": outcome.status.value, "witness": witness, "nodes": outcome.nodes}
    return result, "backtracking avoiding-word search, oracle-verified"


def _search_ramsey(args) -> tuple[object, str]:
    length = search.exact_ramsey_length(CountKind(args.kind), Pattern.from_text(args.pattern),
                                        args.m, args.n_max, args.budget)
    result = {"ramsey_length": length, "searched_up_to": args.n_max}
    return result, "exact forcing length by exhaustive search"


def _reproduce(args) -> tuple[object, str]:
    return reproduce_report(), "bundled reference values vs recomputed values"


# parsed values that are not inputs: the record's command and kind, the
# handler, the global output and worker options, and the work limits
_NOT_INPUTS = {"command", "subcommand", "kind", "run", "format", "threads", "budget", "eps"}


def _warn(message, *_) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _warn
            args = build_parser().parse_args(argv)
            result, provenance = args.run(args)
        record = {
            "command": " ".join(filter(None, (args.command, getattr(args, "subcommand", None)))),
            "kind": getattr(args, "kind", None),
            "inputs": {k: str(v) if isinstance(v, Fraction) else v
                       for k, v in vars(args).items()
                       if k not in _NOT_INPUTS and v is not None and v is not False},
            "result": _format_value(result),
            "provenance": provenance,
        }
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceededError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 2
    except ToleranceError as exc:
        print(f"tolerance error: {exc} (partial value {exc.partial})", file=sys.stderr)
        return 2
    # reproduce alone returns rows, and exits 2 when one misses its tolerance
    rows = record["result"] if isinstance(record["result"], list) else []
    code = 0 if all(row["ok"] for row in rows) else 2
    try:
        _emit(record, args.format)
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so the final flush stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
