"""Command-line front end: tables, verifications and the Bott-sequence audit.

Exit codes: 0 success, 1 malformed input, 2 verification failure, 3 audit
findings (the expected outcome of the smash audit, distinguishing errata in
the printed tables from a computation failure), 141 standard output closed
before the output was written (``kconn lu --max 4000 | head -1``).  Output is
deterministic and byte-identical across runs for identical inputs.
"""

from __future__ import annotations

import argparse
import os
import sys

from ._record import as_dict
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
# the shell's status for a process that SIGPIPE ends
EXIT_BROKEN_PIPE = 141
# the largest --p and x-count --n accepted, checked before any work: at
# --max 40 every verb with a --p answers in under 0.4 s at p = 251 but takes
# 2.4 s at p = 1009, and x-count, which enumerates, takes 0.06 s at n = 10^6
BOUNDS = {"p": 256, "n": 10**6}


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to status 2; the interface reserves 2 for
    verification failures, so remap malformed input to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _group_record(degree: int, group: FgAbelianGroup, **extra) -> dict:
    return {"degree": degree, "group": render_group(group),
            "canonical": group.to_json_dict(), **extra}


_GROUP_CSV = ["degree", "group", "rank", "invariants"]


def _cell(rec: dict, col: str):
    if col == "rank":
        return rec["canonical"]["rank"]
    if col == "invariants":
        return ";".join(str(d) for d in rec["canonical"]["invariants"])
    return rec.get(col, "")


def _emit(args, records: list[dict], columns: list[str],
          text: str | None = None, report: dict | None = None) -> None:
    """Write ``records`` to stdout in the format ``args.format`` asks for.

    JSON wraps them with the verb and its parameters, every option of the
    verb but ``--format`` and ``--fixtures``, and a ``report`` when one is
    given.  CSV writes the ``columns`` of each record, or of each of the
    report's findings when there is a report.  Text is ``text`` when it is
    given, else the columns as an aligned table.
    """
    if args.format == "json":
        import json

        params = {k: v for k, v in vars(args).items() if k not in ("verb", "format", "fixtures")}
        doc: dict = {"command": args.verb, "parameters": params, "records": records}
        if report is not None:
            doc["report"] = report
        sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    elif args.format == "csv":
        import csv

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


# --- verb handlers: each returns (exit code, records, columns, text, report) -----

def _nonzero_degrees(group_at):
    """A handler listing the nontrivial groups ``group_at(args, n)`` for
    n = 0..--max."""

    def run(args):
        groups = ((n, group_at(args, n)) for n in range(args.max + 1))
        records = [_group_record(n, g) for n, g in groups if not g.is_trivial()]
        return EXIT_OK, records, _GROUP_CSV, None, None

    return run


def _tor(args):
    groups = ((internal, i, tor_closed_form(args.p, i, internal))
              for internal in range(0, args.max + 1, 2) for i in range(1, args.p))
    records = [_group_record(d, g, summand=i) for d, i, g in groups if not g.is_trivial()]
    return EXIT_OK, records, ["summand", *_GROUP_CSV], None, None


def _hom_dim(args):
    records = [
        {
            "degree": degree,
            "dim_b": hom_dim("B", args.space, degree),
            "dim_e": hom_dim("E", args.space, degree),
        }
        for degree in range(2, args.max + 1, 2)
    ]
    return EXIT_OK, records, ["degree", "dim_b", "dim_e"], None, None


def _x_count(args):
    value = x_count(args.n)
    return EXIT_OK, [{"n": args.n, "count": value}], ["n", "count"], f"{value}\n", None


def _fixture_verb(handler):
    """A verb over the fixture tables: an unreadable or malformed file, a
    query that takes a table expression past its bounds, or a theory or
    degree the file does not cover exits 1 with one line on stderr."""

    def run(args):
        try:
            return handler(args, load_fixture_table(args.fixtures))
        except (OSError, ValueError) as exc:
            message = str(exc)
        except KeyError as exc:  # str() of a KeyError quotes its message
            message = exc.args[0]
        sys.stderr.write(f"kconn: error: {message}\n")
        sys.exit(EXIT_USAGE)

    return run


@_fixture_verb
def _bo_tables(args, table: FixtureTable):
    records = []
    for theory, fixture_theory in (("bo", "bo_rp"), ("bo1", "bo1_rp"), ("H", "h_rp")):
        for n in range(args.max + 1):
            group, row = table.lookup(fixture_theory, n)
            records.append(_group_record(n, group, theory=theory, source=row.source))
    return EXIT_OK, records, ["theory", *_GROUP_CSV, "source"], None, None


@_fixture_verb
def _bo_smash(args, table: FixtureTable):
    source = "computed: cover theory plus wedge classes"
    records = [_group_record(m, bo_smash_group(m, table), source=source)
               for m in range(args.max + 1)]
    return EXIT_OK, records, [*_GROUP_CSV, "source"], None, None


@_fixture_verb
def _audit(args, table: FixtureTable):
    audit = bott_audit(args.space, args.max, table)
    report = {**as_dict(audit), "has_errata": audit.has_errata}
    if not audit.baseline_feasible:
        code = EXIT_VERIFICATION_FAILED
    else:
        code = EXIT_AUDIT_FINDINGS if audit.has_errata else EXIT_OK
    columns = ["row", "status", "corrected", "detail"]
    return code, [], columns, audit.to_text() + "\n", report


def _verify_all(args):
    records = [
        {"criterion": r.number, "title": r.title, "passed": r.passed, "detail": r.detail}
        for r in run_acceptance()
    ]
    text = ""
    for r in records:
        mark = "PASS" if r["passed"] else "FAIL"
        detail = f" [{r['detail']}]" if r["detail"] else ""
        text += f"{mark} criterion {r['criterion']}: {r['title']}{detail}\n"
    code = EXIT_OK if all(r["passed"] for r in records) else EXIT_VERIFICATION_FAILED
    return code, records, ["criterion", "title", "passed", "detail"], text, None


# --- the verb table -----------------------------------------------------------------

def _max(default: int = 40, **extra) -> tuple[str, dict]:
    return "--max", {"type": int, "default": default, **extra}


_P = ("--p", {"type": int, "default": 2})
_SPACE = ("--space", {"choices": ("rp", "smash"), "default": "smash"})
_FORMAT = ("--format", {"choices": ("text", "csv", "json"), "default": "text",
                        "help": "output format (default: text)"})
_FIXTURES = ("--fixtures", {"default": None, "metavar": "FILE",
                            "help": "path to a fixture tables file (default: packaged tables)"})
_TOR_METHOD = ("--tor-method", {
    "choices": ("resolution", "closed-form"), "default": "resolution",
    "help": "odd degrees via the resolution kernel (default) or the closed form"})

# verb -> (help, options in the order --help lists them, handler)
VERBS = {
    "lu": ("closed-form table of the summand theory of B Z/p", (_P, _max(), _FORMAT),
           _nonzero_degrees(lambda args, n: lu_closed_form(args.p, n))),
    "bu": ("reduced bu of B Z/p, reassembled degree table", (_P, _max(), _FORMAT),
           _nonzero_degrees(lambda args, n: bu_bzp_group(args.p, n))),
    "smash-bu": ("bu of the smash square of B Z/p", (_P, _max(), _TOR_METHOD, _FORMAT),
                 _nonzero_degrees(lambda args, n: kunneth_smash_group(
                     args.p, n, method=args.tor_method.replace("-", "_")))),
    "tor": ("torsion summand table (closed form)",
            (_P, _max(help="internal degree bound"), _FORMAT), _tor),
    "hom-dim": ("functional dimensions over the two subalgebras",
                (_SPACE, _max(help="even cohomological degree bound"), _FORMAT), _hom_dim),
    "x-count": ("wedge pair count at one parameter",
                (("--n", {"type": int, "required": True}), _FORMAT), _x_count),
    "bo-tables": ("fixture tables: bo, its cover, and homology",
                  (_max(), _FORMAT, _FIXTURES), _bo_tables),
    "bo-smash": ("bo of the smash square via the decomposition",
                 (_max(), _FORMAT, _FIXTURES), _bo_smash),
    "audit": ("Bott-sequence feasibility audit",
              (_SPACE, _max(24), _FORMAT, _FIXTURES), _audit),
    "verify-all": ("run the complete acceptance battery", (_FORMAT,), _verify_all),
}


def build_parser(verb: str | None = None) -> _Parser:
    """The parser of every verb, or of ``verb`` alone, which is all that a
    command line naming it needs; its usage line still names every verb."""
    parser = _Parser(
        prog="kconn",
        description=(
            "Exact calculator for connective K-homology of classifying-space "
            "smash products, with table audits."
        ),
    )
    # the usage line lists the subparsers' choices unless a metavar is given
    usage = {} if verb is None else {"metavar": "{" + ",".join(VERBS) + "}"}
    sub = parser.add_subparsers(dest="verb", required=True, parser_class=_Parser, **usage)
    for name, (help_text, options, _) in VERBS.items():
        if verb in (None, name):
            verb_parser = sub.add_parser(name, help=help_text)
            for flag, spec in options:
                verb_parser.add_argument(flag, **spec)
    return parser


# the verbs whose orders grow with --max: the largest order each prints up
# to --max is p^e, e = (x - 1) // (p - 1) + 1 for x = reach(--max) >= 1,
# from the closed forms: lu at its top odd degree (bu is a shifted sum of lu
# copies, the unshifted one largest), Tor of summand 1 at its top even
# internal degree, and smash-bu, whose odd degrees hold bu two degrees down
# and whose even degrees from 2 on hold copies of Z/p
_ORDER_REACH = {
    "lu": lambda top: (top + 1) // 2,
    "bu": lambda top: (top + 1) // 2,
    "tor": lambda top: top // 2,
    "smash-bu": lambda top: max((top - 1) // 2, int(top >= 2)),
}


def _largest_exponent(verb: str, p: int, top: int) -> int:
    """The e with p^e the largest order ``verb`` prints up to degree ``top``
    (0 when it prints none)."""
    reach = _ORDER_REACH[verb](top)
    return (reach - 1) // (p - 1) + 1 if reach >= 1 else 0


def _past_digit_limit(verb: str, p: int, top: int) -> bool:
    """Whether the largest order ``verb`` prints up to ``top`` has more
    digits than the interpreter converts to text (0, or a Python without
    the limit, means no limit).  Exact: p^e >= 2^e >= 16^limit once
    e >= 4 * limit, and below that p^e is formed and compared with
    10^limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    e = _largest_exponent(verb, p, top)
    return bool(limit and e) and (e >= 4 * limit or p ** e >= 10 ** limit)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv and argv[0] in VERBS else None)
    args = parser.parse_args(argv)
    for attr in ("max", "n"):
        if vars(args).get(attr, 0) < 0:
            parser.error(f"--{attr} must be non-negative")
    for attr, bound in BOUNDS.items():
        if vars(args).get(attr, 0) > bound:
            parser.error(f"--{attr} must be at most {bound}, got {vars(args)[attr]}")
    if "p" in vars(args) and not is_prime(args.p):
        parser.error(f"--p must be a prime number, got {args.p}")
    if args.verb in _ORDER_REACH and _past_digit_limit(args.verb, args.p, args.max):
        parser.error(f"--max {args.max} at --p {args.p} gives a group order of more than "
                     f"{sys.get_int_max_str_digits()} digits, the most this Python prints")
    code, records, columns, text, report = VERBS[args.verb][2](args)
    try:
        _emit(args, records, columns, text, report)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: point stdout at the null device, so that the
        # interpreter's own flush at exit neither fails nor prints
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


def run() -> None:
    """The console entry point: :func:`main`, then an exit that skips the
    interpreter's teardown, since freeing the caches a verb has filled
    takes longer than some verbs.  Both streams are flushed first; a
    ``SystemExit`` or an exception from ``main`` ends the process the
    normal way."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
