import hashlib
import json
from pathlib import Path

import pytest

from kconn.cli import main
from kconn.abelian import parse_group
from kconn.exactseq import MAX_EXPONENT

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

from importlib import resources

from .expectations import CRITERION_5_DETAIL


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


def test_missing_fixture_exits_1(tmp_path, capsys, monkeypatch):
    missing = tmp_path / "absent.txt"
    code, out, err = run_cli(capsys, "bo-tables", "--fixtures", str(missing))
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and "absent.txt" in err
    # a directory named by the environment variable is read the same way
    monkeypatch.setenv("KCONN_FIXTURES", str(tmp_path))
    code, out, err = run_cli(capsys, "bo-smash", "--max", "4")
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and "tables.txt" in err


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
