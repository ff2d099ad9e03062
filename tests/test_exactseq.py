import json
import re
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kconn.abelian import FgAbelianGroup, render_group
from kconn.cli import main
from kconn.exactseq import (
    BOTT,
    COVER,
    ETA_COVER,
    MAX_EXPONENT,
    FixtureRow,
    FixtureTable,
    GroupExpression,
    LongExactSequence,
    SequenceNode,
    bo1_les_consistency,
    bo_smash_group,
    bott_audit,
    bott_sequence,
    exact_sequence,
    image_order_solve,
    load_fixture_table,
    parse_fixture_text,
    table_group,
)
from kconn.kmods import bu_bzp_group

C = FgAbelianGroup.cyclic
trivial = FgAbelianGroup.trivial


def elem2(k):
    return FgAbelianGroup.from_cyclic_orders(0, [2] * k)


def seq_of(*groups):
    nodes = tuple(SequenceNode(f"A_{i}", g) for i, g in enumerate(groups))
    return LongExactSequence(nodes)


# --- group expressions -----------------------------------------------------------

def test_group_expressions():
    assert GroupExpression("0").evaluate(3) == trivial()
    assert GroupExpression("Z").evaluate(0) == FgAbelianGroup.free(1)
    assert GroupExpression("Z/2").evaluate(5) == C(2)
    assert GroupExpression("Z/2^(4n+3)").evaluate(1) == C(128)
    assert GroupExpression("(Z/2)^(2n+1)").evaluate(2) == elem2(5)
    assert GroupExpression("Z/2^(n)").evaluate(3) == C(8)
    with pytest.raises(ValueError):
        GroupExpression("Q/Z").evaluate(0)


@pytest.mark.parametrize("text", ["Z/0", "(Z/0)^(2)", "Z/0^(n)"])
def test_a_zero_base_is_refused_at_every_n(text):
    # Z/0 would read as Z, a free summand; Z/0^(n) as 0 at n = 0, Z after
    for n in range(4):
        with pytest.raises(ValueError, match=rf"^base 0 in '{re.escape(text)}' at n={n}$"):
            GroupExpression(text).evaluate(n)


def test_fixture_parser_and_validity():
    table = parse_fixture_text(
        """
        demo | 1 | 0 | Z/2 | - | special row
        demo | 1 | 4 | Z/2^(n) | 1 | generic row
        """
    )
    g, row = table.lookup("demo", 1)
    assert g == C(2) and row.modulus == 0
    g, row = table.lookup("demo", 5)
    assert g == C(2) and row.modulus == 4
    g, _ = table.lookup("demo", 9)
    assert g == C(4)
    with pytest.raises(KeyError):
        table.lookup("demo", 3)


@pytest.mark.parametrize(
    "line,message",
    [
        ("demo | x | 4 | Z/2 | 0 | src", "residue 'x' is not an integer"),
        ("demo | 1 | 4.5 | Z/2 | 0 | src", "modulus '4.5' is not an integer"),
        ("demo | 1 | 4 | Z/2 | one | src", "min_n 'one' is not an integer"),
        ("demo | 1 | 4 | Q/Z | 0 | src", "cannot parse group expression 'Q/Z'"),
        # the fields are checked before the expression is evaluated at min_n
        ("demo | 1 | 4 | Z/2^(n) | -1 | src", "negative min_n -1"),
        ("demo | 0 | 8 | Z/2^(n) | -1 | src", "negative min_n -1"),
        ("demo | 1 | 4 | Z/2", "expected 6 fields, got 4"),
        ("demo | 1 | 4 | (Z/2)^(n) | 200000 | src",
         f"multiplicity 200000 in '(Z/2)^(n)' at n=200000 exceeds {MAX_EXPONENT}"),
        ("demo | 1 | 4 | Z/2^(n+1) | 4096 | src", "exponent 4097 in 'Z/2^(n+1)' at n=4096"),
        # a base is bounded too, as it bounds the size of an evaluated group
        ("demo | 1 | 4 | (Z/1000000000000000003)^(1) | 0 | src",
         "base 1000000000000000003 in '(Z/1000000000000000003)^(1)' at n=0 exceeds"),
        ("demo | 1 | 4 | Z/1000000007^(2) | 0 | src", "base 1000000007 in 'Z/1000000007^(2)'"),
        ("demo | 1 | 4 | Z/4097 | 0 | src", f"base 4097 in 'Z/4097' at n=0 exceeds {MAX_EXPONENT}"),
        ("demo | 9 | 8 | Z/2 | -1 | src", "negative min_n -1"),
        ("demo | 1 | -8 | Z/2 | 0 | src", "negative modulus -8"),
        ("demo | -3 | 8 | Z/2 | 0 | src", "negative residue -3"),
        # a constant after an n-term needs its "+"
        ("demo | 3 | 8 | Z/2^(4n3) | 0 | src", "cannot parse linear expression '4n3'"),
        ("demo | 3 | 8 | (Z/2)^(n2) | 0 | src", "cannot parse linear expression 'n2'"),
        # and a constant alone takes no sign
        ("demo | 3 | 8 | Z/2^(+3) | 0 | src", "cannot parse linear expression '+3'"),
        ("demo | 3 | 8 | (Z/2)^( + 2) | 0 | src", "cannot parse linear expression '+ 2'"),
    ],
)
def test_fixture_errors_name_their_line(line, message):
    # the bad row is line 3; a bad group expression fails at load, not when
    # its row is first evaluated
    text = "# header\ndemo | 0 | 4 | Z/2 | 0 | good row\n" + line + "\n"
    with pytest.raises(ValueError, match="^fixture line 3: ") as info:
        parse_fixture_text(text)
    assert message in str(info.value)


def test_expressions_at_the_bound_load():
    text = (
        f"demo | 1 | 4 | (Z/2)^(n) | {MAX_EXPONENT} | src\n"
        f"demo | 2 | 4 | Z/3^(2n) | {MAX_EXPONENT // 2} | src\n"
        f"demo | 3 | 4 | Z/{MAX_EXPONENT} | 0 | src\n"
    )
    table = parse_fixture_text(text)
    assert table.lookup("demo", 3)[0] == C(MAX_EXPONENT)
    g, _ = table.lookup("demo", 1 + 4 * MAX_EXPONENT)
    assert g == FgAbelianGroup(0, (2,) * MAX_EXPONENT)
    g, _ = table.lookup("demo", 2 + 4 * (MAX_EXPONENT // 2))
    assert g == C(3**MAX_EXPONENT)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python prints integers of any length")
def test_an_order_past_the_digit_limit_is_refused_at_load_and_at_query():
    # at the smallest limit Python allows, 10^639 (640 digits) is a group and
    # 10^640 (641 digits) is refused in kconn's words, naming the expression,
    # n and the limit, wherever the row is evaluated
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        table = parse_fixture_text("demo | 1 | 4 | Z/10^(n+639) | 0 | src\n")
        assert table.lookup("demo", 1)[0] == C(10**639)
        refusal = r"Z/10\^640 in 'Z/10\^\(n\+639\)' at n=1 has more than 640 digits"
        with pytest.raises(ValueError, match="^" + refusal):
            table.lookup("demo", 5)
        with pytest.raises(ValueError, match="^fixture line 1: " + refusal):
            parse_fixture_text("demo | 1 | 4 | Z/10^(n+639) | 1 | src\n")
    finally:
        sys.set_int_max_str_digits(old)


_FIELD_TEXT = st.text(alphabet="Zn0123456789/^()+-| #x.", max_size=8)
_INT = st.integers(-2, 12).map(str)
_NUMBER = st.one_of(_INT, _INT, st.just("-"), st.just("1000000007"), _FIELD_TEXT)
_GROUP = st.one_of(
    st.sampled_from(["0", "Z", "Z/2", "Z/2^(4n+3)", "(Z/2)^(2n+1)", "Z/3^2", "(Z/2)^3",
                     "Z/1000000007^(n)", "(Z/2)^(1000000007n)"]),
    _FIELD_TEXT,
)
_ROW = st.tuples(st.sampled_from(["bo_rp", "demo"]), _NUMBER, _NUMBER, _GROUP, _NUMBER,
                 st.just("src")).map(" | ".join)
_LINE = st.one_of(_ROW, _ROW, _ROW, _FIELD_TEXT)


@settings(max_examples=150, deadline=None)
@given(st.lists(_LINE, min_size=1, max_size=3))
def test_fixture_parser_fuzz(lines):
    # whatever the lines hold, the parser either loads them or raises a
    # ValueError that names the offending line; a huge base, exponent or
    # multiplicity raises too, because each is bounded by MAX_EXPONENT
    try:
        parse_fixture_text("\n".join(lines))
    except ValueError as exc:
        assert str(exc).startswith("fixture line "), exc


def three_branch_evaluate(text, n):
    """Reference for ``GroupExpression.evaluate``: the earlier rule, which
    tried a cyclic power, then an elementary power, then a bare ``Z/B``, each
    with its own pattern.  Test-local, as the library keeps one pattern."""
    text = text.strip()
    if text == "0":
        return FgAbelianGroup.trivial()
    if text == "Z":
        return FgAbelianGroup.free(1)

    def bounded(kind, value):
        if value < 0:
            raise ValueError(f"negative {kind} in {text!r} at n={n}")
        if value > MAX_EXPONENT:
            raise ValueError(f"{kind} {value} in {text!r} at n={n} exceeds {MAX_EXPONENT}")
        return value

    def base(digits):
        value = bounded("base", int(digits))
        if value == 0:
            raise ValueError(f"base 0 in {text!r} at n={n}")
        return value

    def linear(exponent):
        exponent = exponent.strip()
        # an n-term, "+" and a constant; an n-term alone; or a constant
        m = re.match(r"^(?:(\d*)n\s*\+\s*(\d+)|(\d*)n|(\d+))$", exponent)
        if not m:
            raise ValueError(f"cannot parse linear expression {exponent!r}")
        slope = m.group(1) if m.group(1) is not None else m.group(3)
        slope = 0 if slope is None else int(slope or 1)
        return slope * n + int(m.group(2) or m.group(4) or 0)

    m = re.match(r"^Z/(\d+)\^\(([^)]+)\)$|^Z/(\d+)\^(\d+)$", text)
    if m:
        b = base(m.group(1) or m.group(3))
        e = bounded("exponent", linear(m.group(2) or m.group(4)))
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit and b**e >= 10**limit:
            raise ValueError(f"Z/{b}^{e} in {text!r} at n={n} has more than {limit} digits, "
                             "the most this Python prints")
        return FgAbelianGroup.cyclic(b**e)
    m = re.match(r"^\(Z/(\d+)\)\^\(([^)]+)\)$|^\(Z/(\d+)\)\^(\d+)$", text)
    if m:
        b = base(m.group(1) or m.group(3))
        count = bounded("multiplicity", linear(m.group(2) or m.group(4)))
        return FgAbelianGroup.from_cyclic_orders(0, [b] * count)
    m = re.match(r"^Z/(\d+)$", text)
    if m:
        return FgAbelianGroup.cyclic(base(m.group(1)))
    raise ValueError(f"cannot parse group expression {text!r}")


def _outcome(evaluate, text, n):
    try:
        return evaluate(text, n)
    except ValueError as exc:
        return str(exc)


_DIGITS = st.sampled_from(["", "0", "1", "2", "3", "12", "4096", "4097", "1000000007"])
_TEMPLATED = st.builds(
    str.format,
    st.sampled_from(["Z/{b}^({a}n+{c})", "(Z/{b})^({a}n+{c})", "Z/{b}^({a}n)", "Z/{b}^({c})",
                     "(Z/{b})^{c}", "Z/{b}^{c}", "Z/{b}", "(Z/{b})", " Z/{b}^( n + {c} ) ",
                     "(Z/{b})^(n)", "Z/{b}^(n+)", "Z/{b}^({a} n)", "Z/{b}^({a}n{c})",
                     "(Z/{b})^(n {c})"]),
    a=_DIGITS, b=_DIGITS, c=_DIGITS,
)


@settings(max_examples=400, deadline=None)
@given(st.one_of(_FIELD_TEXT, _GROUP, _TEMPLATED), st.integers(0, 6))
def test_one_expression_rule_matches_the_three_branch_rule(text, n):
    # the same group, or a ValueError with the same message
    new = _outcome(lambda t, k: GroupExpression(t).evaluate(k), text, n)
    assert new == _outcome(three_branch_evaluate, text, n)


def test_table_group_rejects_negative_degree():
    with pytest.raises(ValueError):
        table_group("bo_rp", -1)


# --- checks ------------------------------------------------------------------------

def alternating_order_check(seq: LongExactSequence) -> bool:
    """Reference for the multiplicative consequence of exactness: over every
    zero-bounded stretch the alternating product of the orders is 1."""
    num = den = 1
    parity = 0
    for node in seq.nodes:
        if node.group.is_trivial():
            if num != den:
                return False
            num = den = 1
            parity = 0
            continue
        if parity == 0:
            num *= node.group.order()
        else:
            den *= node.group.order()
        parity ^= 1
    return num == den


def test_alternating_order_pass():
    assert alternating_order_check(seq_of(trivial(), C(2), C(4), C(2), trivial()))


def test_alternating_order_fail():
    assert not alternating_order_check(seq_of(trivial(), C(2), C(2), C(2), trivial()))


def test_alternating_order_multiple_segments():
    ok = seq_of(trivial(), C(3), C(3), trivial(), C(5), C(5), trivial())
    assert alternating_order_check(ok)
    bad = seq_of(trivial(), C(3), C(3), trivial(), C(5), C(25), trivial())
    assert not alternating_order_check(bad)


def test_check_preconditions():
    with pytest.raises(ValueError):
        image_order_solve(seq_of(C(2), C(2), trivial()))
    with pytest.raises(ValueError):
        image_order_solve(seq_of(trivial(), FgAbelianGroup.free(1), trivial()))


@pytest.mark.parametrize("groups", [(), (trivial(),)], ids=["no_node", "one_node"])
def test_a_sequence_of_fewer_than_two_nodes_is_too_short_to_check(groups):
    # a lone zero node begins and ends at zero, so only the length check
    # refuses it
    with pytest.raises(ValueError, match="sequence too short to check"):
        image_order_solve(seq_of(*groups))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([1, 2, 3, 4, 6, 8, 9]), max_size=6))
def test_feasible_implies_alternating_product_one(orders):
    # the image order out of the last node of a zero-bounded stretch is the
    # stretch's alternating product, and it must divide the order 1 of the
    # zero node closing it, so image_order_solve needs no separate check
    seq = seq_of(trivial(), *(C(k) if k > 1 else trivial() for k in orders), trivial())
    if image_order_solve(seq).feasible:
        assert alternating_order_check(seq)


def _solve_with_trivial_branches(seq):
    """A reference for image_order_solve that treats trivial nodes apart: a
    trivial source sends out image order 1, and a trivial target has order 1."""
    orders = []
    prev = 1
    for k in range(len(seq.nodes) - 1):
        src = seq.nodes[k].group
        if src.is_trivial():
            out = 1
        else:
            total = src.order()
            if total % prev:
                return (False, tuple(orders), k,
                        f"order of {seq.nodes[k].label} is not divisible by the incoming image")
            out = total // prev
        tgt = seq.nodes[k + 1].group
        tgt_order = 1 if tgt.is_trivial() else tgt.order()
        if tgt_order % out:
            return (False, tuple(orders), k,
                    f"image order {out} out of {seq.nodes[k].label} does not divide "
                    f"|{seq.nodes[k + 1].label}| = {tgt_order}")
        orders.append(out)
        prev = out
    return (True, tuple(orders), None, "")


_FINITE = st.lists(st.sampled_from([2, 2, 3, 4, 8]), max_size=2).map(
    lambda orders: FgAbelianGroup.from_cyclic_orders(0, orders))


@settings(max_examples=500, deadline=None)
@given(st.lists(_FINITE, max_size=7))
def test_image_order_solve_needs_no_trivial_branches(groups):
    # the order of a trivial group is 1, and a nonzero image into a zero node
    # is refused one step before a trivial source is reached
    seq = seq_of(trivial(), *groups, trivial())
    res = image_order_solve(seq)
    got = (res.feasible, res.image_orders, res.infeasible_at, res.reason)
    assert got == _solve_with_trivial_branches(seq)


def test_image_order_solve_all_zero():
    res = image_order_solve(seq_of(trivial(), trivial(), trivial()))
    assert res.feasible and set(res.image_orders) == {1}


def test_image_order_solve_infeasible_printed_degree_3():
    # the degree-3 audit instance: 0 -> Z/2 -> Z/8 -> Z/2 -> 0 cannot be exact
    res = image_order_solve(seq_of(trivial(), C(2), C(8), C(2), trivial()))
    assert not res.feasible
    assert res.infeasible_at is not None
    # the corrected value makes it feasible with image orders (2, 2)
    res = image_order_solve(seq_of(trivial(), C(2), C(4), C(2), trivial()))
    assert res.feasible
    assert res.image_orders == (1, 2, 2, 1)


def test_image_orders_deterministic():
    seq = seq_of(trivial(), C(2), C(8), C(4), trivial())
    first = image_order_solve(seq)
    second = image_order_solve(seq)
    assert first == second


# --- fixture tables ------------------------------------------------------------------

def test_bo_table_values():
    assert table_group("bo_rp", 3) == C(8)
    assert table_group("bo_rp", 11) == C(128)
    assert table_group("bo_rp", 1) == C(2)
    assert table_group("bo_rp", 8) == trivial()


def test_bo1_table_values():
    assert table_group("bo1_rp", 7) == C(8)
    assert table_group("bo1_rp", 3) == C(4)
    assert table_group("bo1_rp", 1) == trivial()
    assert table_group("bo1_rp", 0) == trivial()
    assert table_group("bo1_rp", 8) == C(2)
    assert table_group("bo1_rp", 9) == C(2)


def test_h_table_values():
    assert table_group("h_rp", 5) == C(2)
    assert table_group("h_rp", 6) == trivial()


# --- the decomposition --------------------------------------------------------------------

def test_bo_smash_values():
    assert bo_smash_group(4) == elem2(2)
    assert bo_smash_group(6) == C(2)
    assert bo_smash_group(10) == elem2(3)
    assert bo_smash_group(3) == C(4)
    assert bo_smash_group(2) == C(2)
    assert bo_smash_group(0) == trivial()
    assert bo_smash_group(1) == trivial()


def test_bo_smash_vanishes_low():
    for m in (0, 1):
        assert bo_smash_group(m) == trivial()


def test_bo_smash_even_rows_match_printed_table():
    table = load_fixture_table()
    for m in range(0, 51):
        if m % 8 in (3, 7) and m >= 3:
            continue  # the two rows the audit flags
        printed, _ = table.lookup("bo_smash_printed", m)
        assert bo_smash_group(m) == printed, m


def test_bo_smash_odd_rows_against_cover_table():
    for m in range(3, 51, 8):
        assert bo_smash_group(m) == C(2 ** (4 * ((m - 3) // 8) + 2)), m
    for m in range(7, 51, 8):
        assert bo_smash_group(m) == C(2 ** (4 * ((m - 7) // 8) + 3)), m


# --- sequence consistency and audits ----------------------------------------------------------

def test_bo1_les_consistency():
    assert bo1_les_consistency(26)


def _planted(*rows):
    """The packaged tables with exact-degree ``bo1_rp`` rows in front, which
    take precedence over the packaged rows of the same degrees."""
    planted = tuple(
        FixtureRow("bo1_rp", degree, 0, GroupExpression(text), 0, "planted fault")
        for degree, text in rows
    )
    return FixtureTable(planted + load_fixture_table().rows)


def test_bo1_les_detects_perturbed_fixture():
    assert not bo1_les_consistency(26, _planted((3, "Z/8")))
    # the top cover node the trimmed sequences keep
    assert not bo1_les_consistency(26, _planted((25, "Z/2^40")))
    # a planted row equal to the packaged value changes nothing
    assert bo1_les_consistency(26, _planted((3, "Z/4")))


def test_a_fault_planted_in_a_fixture_file_is_detected(tmp_path):
    packaged = resources.files("kconn.data").joinpath("tables.txt").read_text("utf-8")
    path = tmp_path / "tables.txt"
    path.write_text("bo1_rp | 3 | 0 | Z/8 | - | planted fault\n" + packaged, encoding="utf-8")
    table = load_fixture_table(str(path))
    assert table.rows[1:] == load_fixture_table().rows
    assert bo1_les_consistency(26, table) is bo1_les_consistency(26, _planted((3, "Z/8"))) is False


def test_a_fixture_file_is_read_afresh_on_every_call(tmp_path):
    packaged = resources.files("kconn.data").joinpath("tables.txt").read_text("utf-8")
    path = tmp_path / "tables.txt"
    path.write_text(packaged, encoding="utf-8")
    assert len(load_fixture_table(str(path)).rows) == 40
    with path.open("a", encoding="utf-8") as fh:
        fh.write("bo1_rp | 3 | 0 | Z/8 | - | planted fault\n")
    assert len(load_fixture_table(str(path)).rows) == 41
    assert load_fixture_table() is load_fixture_table()


def test_bo1_les_vacuous():
    assert bo1_les_consistency(0)


def test_bott_audit_rp():
    audit = bott_audit("rp", 24)
    assert audit.baseline_feasible
    assert not audit.has_errata


def test_bott_audit_smash():
    audit = bott_audit("smash", 24)
    assert audit.baseline_feasible
    assert audit.has_errata
    by_row = {f.row: f for f in audit.findings}
    flagged = [f.row for f in audit.findings if f.status == "infeasible_as_printed"]
    assert any(r.startswith("8n+3") for r in flagged)
    assert any(r.startswith("8n+7") for r in flagged)
    # every even row and the odd rows 8n+1, 8n+5 are confirmed
    for f in audit.findings:
        if f.status != "confirmed":
            assert f.row.split(" ")[0] in ("8n+3", "8n+7")
    # corrected expressions come from the cover table
    assert by_row["8n+3"].corrected == "Z/2^(4n+2)"
    assert by_row["8n+7"].corrected == "Z/2^(4n+3)"


def test_bott_audit_smash_vacuous():
    audit = bott_audit("smash", 0)
    assert audit.baseline_feasible
    assert not audit.has_errata


def test_bott_audit_notes_cover_column():
    audit = bott_audit("smash", 24)
    assert any("8n+3" in note for note in audit.notes)
    assert any("8n+7" in note for note in audit.notes)


def test_audit_text_lists_cover_notes_when_no_row_is_flagged():
    # without its printed smash rows the audit has no findings, so no
    # errata, but the printed cover column still disagrees with the cover
    # table: its notes go under "errata:", which must not read "none"
    table = load_fixture_table()
    table = FixtureTable(tuple(r for r in table.rows if r.theory != "bo_smash_printed"))
    audit = bott_audit("smash", 48, table)
    assert not audit.findings and not audit.has_errata and audit.notes
    text = audit.to_text()
    assert "errata: none" not in text
    assert text.split("\nerrata:\n")[1].splitlines() == [f"  {n}" for n in audit.notes]


def test_audit_serialisation(capsys):
    # the CLI reports the audit as plain data: every field, plus has_errata
    audit = bott_audit("smash", 16)
    assert main(["audit", "--space", "smash", "--max", "16", "--format", "json"]) == 3
    report = json.loads(capsys.readouterr().out)["report"]
    assert report["has_errata"] is True
    assert (report["space"], report["n_max"], report["anchor"]) == ("smash", 16, audit.anchor)
    assert report["baseline_feasible"] is audit.baseline_feasible
    assert [f["row"] for f in report["findings"]] == [f.row for f in audit.findings]
    assert [f["degrees"] for f in report["findings"]] == [list(f.degrees) for f in audit.findings]
    assert report["notes"] == list(audit.notes)
    text = audit.to_text()
    assert "errata" in text
    assert "corrected" in text


def test_bott_sequence_structure():
    bo_at = lambda n: table_group("bo_rp", n)
    bu_at = lambda n: bu_bzp_group(2, n)
    seq = bott_sequence(bo_at, bu_at, 10)
    assert seq.nodes[0].group.is_trivial()
    assert seq.nodes[-1].group.is_trivial()
    assert len(seq.arrow_labels) == len(seq.nodes) - 1


def test_exact_sequence_owns_the_vanishing_range():
    # group functions are asked only for degrees 0 and up, every node below
    # degree 0 is trivial, and a degree a table does not cover still raises
    asked = []

    def bo_at(n):
        asked.append(n)
        return table_group("bo_rp", n)

    seq = exact_sequence(BOTT, {"bo": bo_at, "bu": lambda n: bu_bzp_group(2, n)}, 10)
    assert min(asked) == 0
    below = [node for node in seq.nodes if int(node.label.split("_")[1]) < 0]
    assert below and all(node.group.is_trivial() for node in below)
    bo = {n: table_group("bo_rp", n) for n in range(9)}
    with pytest.raises(KeyError):
        bott_sequence(bo.__getitem__, lambda n: bu_bzp_group(2, n), 10)


SHAPES = json.loads(
    (Path(__file__).parent / "fixtures" / "sequence_shapes.json").read_text("utf-8")
)


@pytest.mark.parametrize(
    "name,terms",
    [("BOTT", BOTT), ("COVER", COVER), ("ETA_COVER", ETA_COVER)],
    ids=["BOTT", "COVER", "ETA_COVER"],
)
def test_sequence_shapes(name, terms):
    # node labels, node groups and arrow labels over the packaged tables,
    # recorded from the three separate builders that exact_sequence replaced
    def at(theory):
        return lambda n: table_group(theory, n)

    groups = {"bo": at("bo_rp"), "bo1": at("bo1_rp"), "H": at("h_rp"),
              "bu": lambda n: bu_bzp_group(2, n)}
    seq = exact_sequence(terms, groups, SHAPES["top"])
    want = SHAPES["sequences"][name]
    assert [node.label for node in seq.nodes] == want["nodes"]
    assert [render_group(node.group) for node in seq.nodes] == want["groups"]
    assert list(seq.arrow_labels) == want["arrows"]


def test_bott_audit_rejects_unknown_space():
    with pytest.raises(ValueError):
        bott_audit("torus", 10)


def test_degree_3_printed_entry_alone_is_infeasible():
    # with every other group corrected, the printed degree-3 value still
    # breaks the sequence: its order is bounded by 4
    from kconn.kunneth import kunneth_smash_group

    def bo_at(n):
        return C(8) if n == 3 else bo_smash_group(n)

    seq = bott_sequence(bo_at, lambda n: kunneth_smash_group(2, n, "closed_form"), 13)
    res = image_order_solve(seq)
    assert not res.feasible
    assert "bo_3" in seq.nodes[res.infeasible_at].label or "bu_3" in seq.nodes[res.infeasible_at].label
