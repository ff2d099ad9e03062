import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kconn import cli
from kconn.cli import main
from kconn.abelian import parse_group
from kconn.exactseq import MAX_EXPONENT
from kconn.kmods import bu_bzp_group, lu_closed_form
from kconn.kunneth import kunneth_smash_group, tor_closed_form

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

from importlib import resources

from .expectations import CRITERION_5_DETAIL

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse error path
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def load_schema():
    text = resources.files("kconn.data").joinpath("output.schema.json").read_text("utf-8")
    return json.loads(text)


# --- spec'd examples ----------------------------------------------------------

def test_lu_csv_example(capsys):
    code, out, _ = run_cli(capsys, "lu", "--p", "2", "--max", "9", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "degree,group,rank,invariants"
    assert lines[1:] == [
        "1,Z/2,0,2",
        "3,Z/4,0,4",
        "5,Z/8,0,8",
        "7,Z/16,0,16",
        "9,Z/32,0,32",
    ]


def test_x_count_text(capsys):
    code, out, _ = run_cli(capsys, "x-count", "--n", "10")
    assert code == 0
    assert out == "5\n"


def test_audit_smash_exit_3_with_errata(capsys):
    code, out, _ = run_cli(capsys, "audit", "--space", "smash", "--max", "24")
    assert code == 3
    assert "8n+3" in out and "8n+7" in out
    assert "errata" in out


def test_audit_rp_exit_0(capsys):
    code, out, _ = run_cli(capsys, "audit", "--space", "rp", "--max", "24")
    assert code == 0
    assert "errata: none" in out


def test_verify_all_reports_every_criterion(capsys):
    code, out, _ = run_cli(capsys, "verify-all")
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 10
    # criterion 5 carries the documented degree-4 exactness defect of the
    # published sequence claim; everything else passes
    assert sum(1 for l in lines if l.startswith("PASS")) == 9
    (fail,) = [l for l in lines if l.startswith("FAIL")]
    assert fail.startswith("FAIL criterion 5:")
    assert fail.endswith(f" [{CRITERION_5_DETAIL}]")
    assert code == 2


# --- malformed input ---------------------------------------------------------------

def test_unknown_verb_exits_1(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 1
    assert "usage" in err


def test_nonprime_p_exits_1(capsys):
    code, _, err = run_cli(capsys, "lu", "--p", "6", "--max", "9")
    assert code == 1
    assert "prime" in err


def test_negative_bound_exits_1(capsys):
    code, _, err = run_cli(capsys, "bu", "--max", "-3")
    assert code == 1


@pytest.mark.parametrize("argv,message", [
    (("bu", "--p", "2305843009213693951", "--max", "3"), "--p must be at most 256"),
    (("smash-bu", "--p", "1000003", "--max", "4"), "--p must be at most 256"),
    (("lu", "--p", "257", "--max", "0"), "--p must be at most 256"),
    (("x-count", "--n", "100000000000"), "--n must be at most 1000000"),
    (("x-count", "--n", "1000001"), "--n must be at most 1000000"),
])
def test_inputs_past_their_bound_exit_1(capsys, argv, message):
    # refused before any work: the prime check would take trial division to
    # the square root, and x_count enumerates up to n
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert "usage:" in err and message in err


def test_inputs_at_their_bound_are_accepted(capsys, monkeypatch):
    assert run_cli(capsys, "lu", "--p", "251", "--max", "0") == (0, "degree  group  rank  invariants\n", "")
    monkeypatch.setattr(cli, "x_count", lambda n: n)  # the enumeration is not under test
    assert run_cli(capsys, "x-count", "--n", "1000000") == (0, "1000000\n", "")


def _module_env():
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}


@pytest.mark.parametrize("argv", [("lu", "--max", "4000"),
                                  ("bo-tables", "--max", "1000", "--format", "csv")])
def test_a_closed_stdout_exits_141_quietly(argv):
    # as `kconn lu --max 4000 | head -1` does: the reader takes one line of
    # output far larger than a pipe holds and goes away
    proc = subprocess.Popen([sys.executable, "-m", "kconn.cli", *argv], env=_module_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
    finally:
        proc.wait(timeout=60)
        proc.stderr.close()
    assert first.startswith((b"degree ", b"theory,"))
    assert (proc.returncode, err) == (141, b"")


@pytest.mark.parametrize("argv,code", [
    (("verify-all",), 2),
    (("audit", "--space", "smash", "--max", "16", "--format", "json"), 3),
    (("smash-bu", "--p", "3", "--max", "12", "--format", "json"), 0),
], ids=["verify-all", "audit", "smash-bu"])
def test_a_process_exits_with_the_code_and_output_of_main(capsys, argv, code):
    # `python -m kconn.cli` ends through cli.run, which flushes both streams
    # and skips the interpreter's teardown
    proc = subprocess.run([sys.executable, "-m", "kconn.cli", *argv], env=_module_env(),
                          capture_output=True, timeout=120)
    got, out, _ = run_cli(capsys, *argv)
    assert (proc.returncode, got) == (code, code)
    assert proc.stdout == out.encode("utf-8")


def test_a_usage_error_exits_1_from_a_process():
    proc = subprocess.run([sys.executable, "-m", "kconn.cli", "lu", "--p", "6"],
                          env=_module_env(), capture_output=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert b"--p must be a prime number" in proc.stderr


# one malformed call for every verb, refused by the verb's own parser
_MALFORMED = {
    "lu": ("--p", "x"),
    "bu": ("--max", "1.5"),
    "smash-bu": ("--tor-method", "bogus"),
    "tor": ("--format", "xml"),
    "hom-dim": ("--space", "bogus"),
    "x-count": (),
    "bo-tables": ("--max",),
    "bo-smash": ("--bogus",),
    "audit": ("--space", "bogus"),
    "verify-all": ("--max", "3"),
}
# calls that name a verb but are refused by the top-level parser
_TOP_LEVEL_ERRORS = [("smash-bu", "--bogus"), ("smash-bu", "extra"), ("smash-bu", "--max", "-1")]


@pytest.mark.parametrize("argv", [
    *((verb, "--help") for verb in cli.VERBS),
    *((verb, *tail) for verb, tail in _MALFORMED.items()),
    (), ("--help",), ("bogus",),
    *_TOP_LEVEL_ERRORS,
], ids=" ".join)
def test_a_parser_of_one_verb_answers_as_the_parser_of_every_verb(capsys, monkeypatch, argv):
    # main builds only the named verb's parser; the exit code, stdout and
    # stderr are those of the parser of every verb, byte for byte, and an
    # error from the top-level parser prints the usage line of every verb
    got = run_cli(capsys, *argv)
    every = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda verb=None: every())
    assert got == run_cli(capsys, *argv)
    if argv in _TOP_LEVEL_ERRORS:
        assert "{" + ",".join(cli.VERBS) + "}" in got[2]


def test_importing_the_cli_loads_neither_output_module():
    # json and csv are imported by the one output format that needs each
    probe = ("import sys; before = set(sys.modules); import kconn.cli; "
             "print(sorted({'csv', 'json'} & (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", probe], env=_module_env(),
                          capture_output=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, b"[]\n")


@pytest.mark.parametrize("verb", ["lu", "bu", "tor", "smash-bu"])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_the_largest_order_is_read_from_the_closed_forms(verb, p):
    # the exponent the digit check reads, against the groups the verb prints
    groups = {
        "lu": lambda top: [lu_closed_form(p, n) for n in range(top + 1)],
        "bu": lambda top: [bu_bzp_group(p, n) for n in range(top + 1)],
        "tor": lambda top: [tor_closed_form(p, i, n) for n in range(0, top + 1, 2)
                            for i in range(1, p)],
        "smash-bu": lambda top: [kunneth_smash_group(p, n, "closed_form")
                                 for n in range(top + 1)],
    }[verb]
    for top in range(0, 41):
        largest = max((d for g in groups(top) for d in g.invariant_factors), default=1)
        assert p ** cli._largest_exponent(verb, p, top) == largest, top


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python prints integers of any length")
@pytest.mark.parametrize("verb", ["lu", "bu", "tor"])
@pytest.mark.parametrize("p", [2, 3, 7])
def test_max_is_refused_where_an_order_would_pass_the_digit_limit(capsys, verb, p):
    # at the smallest limit Python allows, the first --max refused is the
    # first at which printing would fail, in every format
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        top = next(t for t in range(10**5) if cli._past_digit_limit(verb, p, t))
        for fmt in ("text", "csv", "json"):
            code, out, err = run_cli(capsys, verb, "--p", str(p), "--max", str(top - 1),
                                     "--format", fmt)
            assert (code, err) == (0, ""), fmt
            code, out, err = run_cli(capsys, verb, "--p", str(p), "--max", str(top),
                                     "--format", fmt)
            assert (code, out) == (1, ""), fmt
            assert err.startswith("usage: kconn") and "more than 640 digits" in err
            with pytest.raises(ValueError, match="limit"):
                str(p ** (cli._largest_exponent(verb, p, top)))
    finally:
        sys.set_int_max_str_digits(limit)


def test_a_max_past_the_digit_limit_exits_1_at_once():
    # Z/2^14285 would have 4,301 digits, one more than Python prints by default
    proc = subprocess.run([sys.executable, "-m", "kconn.cli", "lu", "--p", "2", "--max", "28569"],
                          env=_module_env(), capture_output=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr.startswith(b"usage: kconn") and b"more than 4300 digits" in proc.stderr
    assert not cli._past_digit_limit("lu", 2, 28568)


def test_main_returns_and_run_skips_exit_hooks():
    # main returns its code to a library caller, whose process goes on and
    # runs its exit hooks; run ends the process without them
    hook = "import atexit, sys; atexit.register(lambda: print('hook')); "
    calls = {
        "from kconn.cli import main; print('returned', main(['x-count', '--n', '10']))":
            (0, b"5\nreturned 0\nhook\n"),
        "from kconn.cli import run; sys.argv[1:] = ['x-count', '--n', '10']; run()":
            (0, b"5\n"),
    }
    for call, expected in calls.items():
        proc = subprocess.run([sys.executable, "-c", hook + call], env=_module_env(),
                              capture_output=True, timeout=60)
        assert (proc.returncode, proc.stdout) == expected, call


# --- formats ----------------------------------------------------------------------

def test_output_deterministic(capsys):
    first = run_cli(capsys, "bo-smash", "--max", "20", "--format", "json")
    second = run_cli(capsys, "bo-smash", "--max", "20", "--format", "json")
    assert first == second
    third = run_cli(capsys, "smash-bu", "--p", "3", "--max", "12", "--format", "csv")
    fourth = run_cli(capsys, "smash-bu", "--p", "3", "--max", "12", "--format", "csv")
    assert third == fourth


@pytest.mark.skipif(jsonschema is None, reason="jsonschema not installed")
@pytest.mark.parametrize(
    "argv",
    [
        ("lu", "--p", "3", "--max", "12"),
        ("bu", "--p", "2", "--max", "12"),
        ("smash-bu", "--p", "2", "--max", "10"),
        ("tor", "--p", "3", "--max", "16"),
        ("hom-dim", "--max", "12"),
        ("x-count", "--n", "7"),
        ("bo-tables", "--max", "10"),
        ("bo-smash", "--max", "10"),
        ("audit", "--space", "smash", "--max", "16"),
        ("verify-all",),
    ],
)
def test_json_validates_against_schema(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema())
    assert doc["command"] == argv[0]


def test_group_renderings_roundtrip(capsys):
    for argv in (
        ("bu", "--p", "3", "--max", "14"),
        ("bo-smash", "--max", "18"),
        ("bo-tables", "--max", "12"),
    ):
        _, out, _ = run_cli(capsys, *argv, "--format", "json")
        for rec in json.loads(out)["records"]:
            g = parse_group(rec["group"])
            assert g.to_json_dict() == rec["canonical"]


def test_tor_table_values(capsys):
    code, out, _ = run_cli(capsys, "tor", "--p", "2", "--max", "8", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "summand,degree,group,rank,invariants"
    assert "1,2,Z/2,0,2" in lines
    assert "1,4,Z/4,0,4" in lines
    assert "1,8,Z/16,0,16" in lines


def test_bo_tables_carry_provenance(capsys):
    _, out, _ = run_cli(capsys, "bo-tables", "--max", "8", "--format", "json")
    for rec in json.loads(out)["records"]:
        assert rec["source"]


def test_fixture_override_flag(tmp_path, capsys):
    # a deliberately wrong fixture file is actually used
    override = tmp_path / "tables.txt"
    packaged = resources.files("kconn.data").joinpath("tables.txt").read_text("utf-8")
    override.write_text(
        packaged.replace("bo_rp | 3 | 8 | Z/2^(4n+3)", "bo_rp | 3 | 8 | Z/2^(4n+1)"),
        encoding="utf-8",
    )
    _, out, _ = run_cli(
        capsys, "bo-tables", "--max", "3", "--fixtures", str(override), "--format", "json"
    )
    recs = {(r["theory"], r["degree"]): r["group"] for r in json.loads(out)["records"]}
    assert recs[("bo", 3)] == "Z/2"  # 4n+1 at n=0 instead of 4n+3


@pytest.mark.parametrize("verb", [("bo-tables",), ("bo-smash",), ("audit", "--space", "rp")])
@pytest.mark.parametrize(
    "line,message",
    [
        ("bo_rp | three | 8 | Z/2 | 0 | src", "fixture line 2: residue 'three' is not an integer"),
        ("bo_rp | 3 | 8 | Z/2^(4m+3) | 0 | src", "fixture line 2: cannot parse"),
        ("bo_rp | 3 | 8 | Z/0^(n) | 0 | src", "fixture line 2: base 0 in 'Z/0^(n)' at n=0"),
    ],
)
def test_malformed_fixture_exits_1(tmp_path, capsys, verb, line, message):
    bad = tmp_path / "tables.txt"
    bad.write_text("# a malformed table\n" + line + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, *verb, "--max", "4", "--fixtures", str(bad))
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and message in err


@pytest.mark.parametrize("verb", [("bo-tables",), ("bo-smash",), ("audit", "--space", "rp")])
def test_query_past_expression_bound_exits_1(tmp_path, capsys, verb):
    # the steep rows load (exponent 3 at n = 0) but pass the bound at n = 1
    steep = tmp_path / "tables.txt"
    packaged = resources.files("kconn.data").joinpath("tables.txt").read_text("utf-8")
    steep.write_text(packaged.replace("^(4n+3)", f"^({MAX_EXPONENT}n+3)"), encoding="utf-8")
    code, out, err = run_cli(capsys, *verb, "--max", "16", "--fixtures", str(steep))
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("kconn: error: ")
    assert f"exponent {MAX_EXPONENT + 3} in 'Z/2^({MAX_EXPONENT}n+3)' at n=1" in err


def test_a_fixture_order_past_the_digit_limit_exits_1_in_kconns_words(tmp_path):
    # Z/4096^(4n+3) stays inside MAX_EXPONENT to n = 1023, but its order at
    # n = 297 (degree 2379) has 4,302 digits, more than Python prints by
    # default; the planted row comes first, so it answers the degrees 8n+3
    planted = tmp_path / "tables.txt"
    packaged = resources.files("kconn.data").joinpath("tables.txt").read_text("utf-8")
    planted.write_text("bo_rp | 3 | 8 | Z/4096^(4n+3) | 0 | planted\n" + packaged,
                       encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "kconn.cli", "bo-tables", "--max", "3000",
                           "--fixtures", str(planted)],
                          env=_module_env(), capture_output=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr.count(b"\n") == 1 and b"set_int_max_str_digits" not in proc.stderr
    assert proc.stderr == (b"kconn: error: Z/4096^1191 in 'Z/4096^(4n+3)' at n=297 has more "
                           b"than 4300 digits, the most this Python prints\n")


@pytest.mark.parametrize(
    "row,base,verb",
    [
        ("(Z/1000000000000000003)^(1)", 1000000000000000003, ("bo-tables", "--max", "2")),
        ("Z/1000000007^(2)", 1000000007, ("bo-smash", "--max", "4")),
    ],
)
def test_huge_fixture_base_exits_1(tmp_path, capsys, row, base, verb):
    # a base past the bound is refused at load, before any group is built
    huge = tmp_path / "tables.txt"
    packaged = resources.files("kconn.data").joinpath("tables.txt").read_text("utf-8")
    huge.write_text(packaged.replace("bo_rp | 1 | 8 | Z/2 ", f"bo_rp | 1 | 8 | {row} "),
                    encoding="utf-8")
    code, out, err = run_cli(capsys, *verb, "--fixtures", str(huge))
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("kconn: error: fixture line ")
    assert err.endswith(f": base {base} in {row!r} at n=0 exceeds {MAX_EXPONENT}\n")


@pytest.mark.parametrize(
    "dropped,message",
    [
        ("h_rp |", "no fixture rows for theory 'h_rp'"),
        ("h_rp | 1 |", "theory 'h_rp' has no row covering degree 1"),
    ],
    ids=["missing_theory", "uncovered_degree"],
)
def test_uncovered_fixture_query_exits_1(tmp_path, capsys, dropped, message):
    # the file loads, but a lookup finds no row: one line, message unquoted
    partial = tmp_path / "tables.txt"
    packaged = resources.files("kconn.data").joinpath("tables.txt").read_text("utf-8")
    kept = [line for line in packaged.splitlines() if not line.startswith(dropped)]
    partial.write_text("\n".join(kept) + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "bo-tables", "--max", "3", "--fixtures", str(partial))
    assert (code, out) == (1, "")
    assert err == f"kconn: error: {message}\n"


def test_missing_fixture_exits_1(tmp_path, capsys):
    missing = tmp_path / "absent.txt"
    code, out, err = run_cli(capsys, "bo-tables", "--fixtures", str(missing))
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and "absent.txt" in err


@pytest.mark.parametrize("argv", [
    ("verify-all",),
    ("audit", "--space", "smash", "--max", "48", "--format", "json"),
], ids=["verify-all", "audit"])
def test_the_environment_does_not_choose_the_fixture_table(tmp_path, capsys, monkeypatch, argv):
    # a directory whose tables.txt carries a planted fault, named by the
    # variable that once chose the tables: neither a call made with it set
    # nor a process started with it set prints other than an unset run
    packaged = resources.files("kconn.data").joinpath("tables.txt").read_text("utf-8")
    (tmp_path / "tables.txt").write_text(
        packaged + "bo1_rp | 3 | 0 | Z/8 | - | planted fault\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, *argv)
    monkeypatch.setenv("KCONN_FIXTURES", str(tmp_path))
    assert run_cli(capsys, *argv)[:2] == (code, out)
    proc = subprocess.run([sys.executable, "-m", "kconn.cli", *argv], env=_module_env(),
                          capture_output=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (code, out.encode("utf-8"))


# --- golden tensor grid -------------------------------------------------------

GOLDEN_TENSOR = json.loads(
    (Path(__file__).parent / "fixtures" / "smash_bu_tensor_sha256.json").read_text("utf-8")
)["stdout_sha256"]


@pytest.mark.parametrize("p,top", [key.split() for key in GOLDEN_TENSOR])
def test_smash_bu_tensor_golden(capsys, p, top):
    # degrees up to 48 reach a non-unit residue far larger than the
    # hand-checked cases above; the hashes pin the output byte for byte
    code, out, _ = run_cli(capsys, "smash-bu", "--p", p, "--max", top,
                           "--tor-method", "closed-form", "--format", "json")
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == GOLDEN_TENSOR[f"{p} {top}"]


GOLDEN_TOR = json.loads(
    (Path(__file__).parent / "fixtures" / "smash_bu_tor_sha256.json").read_text("utf-8")
)["stdout_sha256"]


@pytest.mark.parametrize("p,top", [key.split() for key in GOLDEN_TOR if key.count(" ") == 1])
def test_smash_bu_tor_golden(capsys, p, top):
    # the default Tor method is the resolution kernel, so every odd degree
    # up to 61 runs tor1_degree; the hashes pin the output byte for byte
    code, out, _ = run_cli(capsys, "smash-bu", "--p", p, "--max", top, "--format", "json")
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == GOLDEN_TOR[f"{p} {top}"]


@pytest.mark.parametrize("p,top,method",
                         [key.split() for key in GOLDEN_TOR if key.count(" ") == 2])
def test_smash_bu_tor_golden_by_method(capsys, p, top, method):
    # up to degree 121 with each Tor method named, so both the resolution
    # kernel and the closed form are pinned over the whole Tor sweep
    code, out, _ = run_cli(capsys, "smash-bu", "--p", p, "--max", top,
                           "--tor-method", method, "--format", "json")
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == GOLDEN_TOR[f"{p} {top} {method}"]


# --- golden grid of every verb ------------------------------------------------

GOLDEN_CLI = json.loads(
    (Path(__file__).parent / "fixtures" / "cli_sha256.json").read_text("utf-8")
)["grid"]


@pytest.mark.parametrize(
    "invocation,fmt",
    [(inv, fmt) for inv, by_format in GOLDEN_CLI.items() for fmt in by_format],
)
def test_cli_golden(capsys, invocation, fmt):
    # every verb in every format, exit code included: the smash audit exits 3
    # and verify-all exits 2; the hashes pin the output byte for byte
    code, out, _ = run_cli(capsys, *invocation.split(), "--format", fmt)
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    want = GOLDEN_CLI[invocation][fmt]
    assert (code, digest) == (want["exit"], want["sha256"])


# --- the library as documented ------------------------------------------------

def test_readme_library_block_runs_and_exports_resolve():
    # the README's library example runs as printed, and every exported name
    # exists, so the docs and kconn.__all__ cannot drift from the code
    import kconn

    readme = (Path(__file__).parent.parent / "README.md").read_text("utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    missing = [name for name in kconn.__all__ if not hasattr(kconn, name)]
    assert missing == []
