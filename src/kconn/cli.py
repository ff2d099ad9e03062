"""Command-line front end: tables, verifications and the Bott-sequence audit.

Exit codes: 0 success, 1 malformed input, 2 verification failure, 3 audit
findings (the expected outcome of the smash audit, distinguishing errata in
the printed tables from a computation failure).  Output is deterministic and
byte-identical across runs for identical inputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .abelian import FgAbelianGroup, render_group
from .exactseq import FixtureTable, bott_audit, bo_smash_group, load_fixture_table
from .kmods import bu_bzp_group, is_prime, lu_closed_form
from .kunneth import kunneth_smash_group, tor_closed_form
from .steenrod import hom_dim, x_count
from .verify import run_acceptance

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION_FAILED = 2
EXIT_AUDIT_FINDINGS = 3


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to status 2; the interface reserves 2 for
    verification failures, so remap malformed input to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _group_record(degree: int, group: FgAbelianGroup, **extra) -> dict:
    rec = {
        "degree": degree,
        "group": render_group(group),
        "canonical": group.to_json_dict(),
    }
    rec.update(extra)
    return rec


_GROUP_CSV = ["degree", "group", "rank", "invariants"]


def _cell(rec: dict, col: str):
    if col == "rank":
        return rec["canonical"]["rank"]
    if col == "invariants":
        return ";".join(str(d) for d in rec["canonical"]["invariants"])
    return rec.get(col, "")


def _emit(args, command: str, params: dict, records: list[dict], columns: list[str],
          text: str | None = None, report: dict | None = None) -> None:
    """Write ``records`` to stdout in the format ``args.format`` asks for.

    JSON wraps them with the command and its parameters, and a ``report``
    when one is given.  CSV writes the ``columns`` of each record, or of each
    of the report's findings when there is a report.  Text is ``text`` when
    it is given, else the columns as an aligned table.
    """
    if args.format == "json":
        doc: dict = {"command": command, "parameters": params, "records": records}
        if report is not None:
            doc["report"] = report
        sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    elif args.format == "csv":
        rows = records if report is None else report["findings"]
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_cell(rec, col) for col in columns] for rec in rows)
    elif text is not None:
        sys.stdout.write(text)
    else:
        table = [columns] + [[str(_cell(rec, col)) for col in columns] for rec in records]
        widths = [max(len(row[k]) for row in table) for k in range(len(columns))]
        for row in table:
            line = "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
            sys.stdout.write(line.rstrip() + "\n")


def _require_prime(parser: _Parser, p: int):
    if not is_prime(p):
        parser.error(f"--p must be a prime number, got {p}")


def _fixture_verb(handler):
    """A verb over the fixture tables: an unreadable or malformed file, a
    query that takes a table expression past its bounds, or a theory or
    degree the file does not cover exits 1 with one line on stderr."""

    def run(args, parser: _Parser) -> int:
        try:
            return handler(args, load_fixture_table(args.fixtures))
        except (OSError, ValueError) as exc:
            parser.exit(EXIT_USAGE, f"{parser.prog}: error: {exc}\n")
        except KeyError as exc:  # str() of a KeyError quotes its message
            parser.exit(EXIT_USAGE, f"{parser.prog}: error: {exc.args[0]}\n")

    return run


# --- verb handlers ----------------------------------------------------------------

def _cmd_lu(args, parser) -> int:
    _require_prime(parser, args.p)
    records = []
    for n in range(args.max + 1):
        g = lu_closed_form(args.p, n)
        if not g.is_trivial():
            records.append(_group_record(n, g))
    _emit(args, "lu", {"p": args.p, "max": args.max}, records, _GROUP_CSV)
    return EXIT_OK


def _cmd_bu(args, parser) -> int:
    _require_prime(parser, args.p)
    records = []
    for n in range(args.max + 1):
        g = bu_bzp_group(args.p, n)
        if not g.is_trivial():
            records.append(_group_record(n, g))
    _emit(args, "bu", {"p": args.p, "max": args.max}, records, _GROUP_CSV)
    return EXIT_OK


def _cmd_smash_bu(args, parser) -> int:
    _require_prime(parser, args.p)
    method = "closed_form" if args.tor_method == "closed-form" else "resolution"
    records = []
    for n in range(args.max + 1):
        g = kunneth_smash_group(args.p, n, method=method)
        if not g.is_trivial():
            records.append(_group_record(n, g))
    params = {"p": args.p, "max": args.max, "tor_method": args.tor_method}
    _emit(args, "smash-bu", params, records, _GROUP_CSV)
    return EXIT_OK


def _cmd_tor(args, parser) -> int:
    _require_prime(parser, args.p)
    records = []
    for internal in range(0, args.max + 1, 2):
        for i in range(1, args.p):
            g = tor_closed_form(args.p, i, internal)
            if not g.is_trivial():
                records.append(_group_record(internal, g, summand=i))
    columns = ["summand", "degree", "group", "rank", "invariants"]
    _emit(args, "tor", {"p": args.p, "max": args.max}, records, columns)
    return EXIT_OK


def _cmd_hom_dim(args, parser) -> int:
    records = []
    for degree in range(2, args.max + 1, 2):
        records.append(
            {
                "degree": degree,
                "dim_b": hom_dim("B", args.space, degree),
                "dim_e": hom_dim("E", args.space, degree),
            }
        )
    params = {"space": args.space, "max": args.max}
    _emit(args, "hom-dim", params, records, ["degree", "dim_b", "dim_e"])
    return EXIT_OK


def _cmd_x_count(args, parser) -> int:
    value = x_count(args.n)
    records = [{"n": args.n, "count": value}]
    _emit(args, "x-count", {"n": args.n}, records, ["n", "count"], text=f"{value}\n")
    return EXIT_OK


@_fixture_verb
def _cmd_bo_tables(args, table: FixtureTable) -> int:
    records = []
    for theory, fixture_theory in (("bo", "bo_rp"), ("bo1", "bo1_rp"), ("H", "h_rp")):
        for n in range(args.max + 1):
            group, row = table.lookup(fixture_theory, n)
            records.append(_group_record(n, group, theory=theory, source=row.source))
    columns = ["theory", "degree", "group", "rank", "invariants", "source"]
    _emit(args, "bo-tables", {"max": args.max}, records, columns)
    return EXIT_OK


@_fixture_verb
def _cmd_bo_smash(args, table: FixtureTable) -> int:
    records = []
    for m in range(args.max + 1):
        g = bo_smash_group(m, table)
        records.append(
            _group_record(m, g, source="computed: cover theory plus wedge classes")
        )
    columns = ["degree", "group", "rank", "invariants", "source"]
    _emit(args, "bo-smash", {"max": args.max}, records, columns)
    return EXIT_OK


@_fixture_verb
def _cmd_audit(args, table: FixtureTable) -> int:
    audit = bott_audit(args.space, args.max, table)
    params = {"space": args.space, "max": args.max}
    columns = ["row", "status", "corrected", "detail"]
    _emit(args, "audit", params, [], columns, text=audit.to_text() + "\n",
          report=audit.to_json_dict())
    if not audit.baseline_feasible:
        return EXIT_VERIFICATION_FAILED
    return EXIT_AUDIT_FINDINGS if audit.has_errata else EXIT_OK


def _cmd_verify_all(args, parser) -> int:
    results = run_acceptance()
    records = [
        {
            "criterion": r.number,
            "title": r.title,
            "passed": r.passed,
            "detail": r.detail,
        }
        for r in results
    ]
    text = ""
    for r in records:
        mark = "PASS" if r["passed"] else "FAIL"
        detail = f" [{r['detail']}]" if r["detail"] else ""
        text += f"{mark} criterion {r['criterion']}: {r['title']}{detail}\n"
    _emit(args, "verify-all", {}, records, ["criterion", "title", "passed", "detail"], text=text)
    return EXIT_OK if all(r["passed"] for r in records) else EXIT_VERIFICATION_FAILED


# --- parser -----------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(
        prog="kconn",
        description=(
            "Exact calculator for connective K-homology of classifying-space "
            "smash products, with table audits."
        ),
    )
    sub = parser.add_subparsers(dest="verb", required=True, parser_class=_Parser)

    def add_common(p, with_fixtures=False):
        p.add_argument(
            "--format",
            choices=("text", "csv", "json"),
            default="text",
            help="output format (default: text)",
        )
        if with_fixtures:
            p.add_argument(
                "--fixtures",
                default=None,
                metavar="FILE",
                help="path to a fixture tables file (default: packaged tables, "
                "or $KCONN_FIXTURES/tables.txt)",
            )

    p = sub.add_parser("lu", help="closed-form table of the summand theory of B Z/p")
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--max", type=int, default=40)
    add_common(p)
    p.set_defaults(handler=_cmd_lu)

    p = sub.add_parser("bu", help="reduced bu of B Z/p, reassembled degree table")
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--max", type=int, default=40)
    add_common(p)
    p.set_defaults(handler=_cmd_bu)

    p = sub.add_parser("smash-bu", help="bu of the smash square of B Z/p")
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--max", type=int, default=40)
    p.add_argument(
        "--tor-method",
        choices=("resolution", "closed-form"),
        default="resolution",
        help="odd degrees via the resolution kernel (default) or the closed form",
    )
    add_common(p)
    p.set_defaults(handler=_cmd_smash_bu)

    p = sub.add_parser("tor", help="torsion summand table (closed form)")
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--max", type=int, default=40, help="internal degree bound")
    add_common(p)
    p.set_defaults(handler=_cmd_tor)

    p = sub.add_parser("hom-dim", help="functional dimensions over the two subalgebras")
    p.add_argument("--space", choices=("rp", "smash"), default="smash")
    p.add_argument("--max", type=int, default=40, help="even cohomological degree bound")
    add_common(p)
    p.set_defaults(handler=_cmd_hom_dim)

    p = sub.add_parser("x-count", help="wedge pair count at one parameter")
    p.add_argument("--n", type=int, required=True)
    add_common(p)
    p.set_defaults(handler=_cmd_x_count)

    p = sub.add_parser("bo-tables", help="fixture tables: bo, its cover, and homology")
    p.add_argument("--max", type=int, default=40)
    add_common(p, with_fixtures=True)
    p.set_defaults(handler=_cmd_bo_tables)

    p = sub.add_parser("bo-smash", help="bo of the smash square via the decomposition")
    p.add_argument("--max", type=int, default=40)
    add_common(p, with_fixtures=True)
    p.set_defaults(handler=_cmd_bo_smash)

    p = sub.add_parser("audit", help="Bott-sequence feasibility audit")
    p.add_argument("--space", choices=("rp", "smash"), default="smash")
    p.add_argument("--max", type=int, default=24)
    add_common(p, with_fixtures=True)
    p.set_defaults(handler=_cmd_audit)

    p = sub.add_parser("verify-all", help="run the complete acceptance battery")
    add_common(p)
    p.set_defaults(handler=_cmd_verify_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for attr in ("max", "n"):
        if getattr(args, attr, None) is not None and getattr(args, attr) < 0:
            parser.error(f"--{attr} must be non-negative")
    return args.handler(args, parser)


if __name__ == "__main__":
    sys.exit(main())
