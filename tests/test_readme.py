"""The results the README states, checked by running its examples."""

import ast
import csv
import json
from pathlib import Path

from patstats.cli import main

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
FIELDS = ["command", "kind", "inputs", "result", "provenance"]


def _block(heading: str, lang: str) -> str:
    """The first ```lang block after the given second-level heading."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def _holds(result, claim: str) -> bool:
    """Whether a result meets its comment: `x...` is a prefix of the printed value,
    `field value` a field of the result, and a bare value the result itself or,
    for a record result, one of its fields."""
    if claim.endswith("..."):
        return json.dumps(result).startswith(claim[:-3])
    field, _, value = claim.rpartition(" ")
    if field:
        return result[field] == ast.literal_eval(value)
    expected = ast.literal_eval(claim)
    return expected in result.values() if isinstance(result, dict) else result == expected


def _no_constant(name: str):
    raise ValueError(f"{name} is not strict JSON")


def _record(out: str) -> dict:
    """The one strict JSON record a command printed, with the record fields."""
    record = json.loads(out, parse_constant=_no_constant)
    assert list(record) == FIELDS, out
    return record


def test_readme_results_hold(capsys):
    commands = _block("Command line", "sh").splitlines()
    assert len(commands) >= 10
    for line in commands:
        command, _, comment = line.partition("#")
        argv = command.split()[1:]
        code = main(argv)
        out = capsys.readouterr().out
        if "reproduce" in argv:  # the density line misses its pinned tolerance
            if argv[:2] == ["--format", "csv"]:
                header, *rows = csv.reader(out.splitlines())
                assert header[:3] == FIELDS[:3] and header[-1] == FIELDS[-1], header
            else:
                rows = _record(out)["result"]
            assert (code, len(rows)) == (2, 10), line
            continue
        assert code == 0, line
        claim = comment.split("->", 1)[1].strip()
        assert _holds(_record(out)["result"], claim), (line, out)

    block = _block("Library", "python")
    lines = block.splitlines()
    namespace = {}
    claims = 0
    for stmt in ast.parse(block).body:
        source = ast.get_source_segment(block, stmt)
        claim = lines[stmt.end_lineno - 1].partition("#")[2].strip()
        if isinstance(stmt, ast.Expr) and claim:
            value = eval(source, namespace)
            assert _holds(value, claim), (source, value)
            claims += 1
        else:
            exec(source, namespace)
    assert claims == 5
