import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kconn.abelian import FgAbelianGroup, render_group
from kconn.exactseq import (
    BOTT,
    COVER,
    ETA_COVER,
    MAX_EXPONENT,
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
        ("demo | 1 | 4 | Z/2^(n) | -1 | src", "negative exponent"),
        ("demo | 1 | 4 | Z/2", "expected 6 fields, got 4"),
        ("demo | 1 | 4 | (Z/2)^(n) | 200000 | src",
         f"multiplicity 200000 in '(Z/2)^(n)' at n=200000 exceeds {MAX_EXPONENT}"),
        ("demo | 1 | 4 | Z/2^(n+1) | 4096 | src", "exponent 4097 in 'Z/2^(n+1)' at n=4096"),
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
    )
    table = parse_fixture_text(text)
    g, _ = table.lookup("demo", 1 + 4 * MAX_EXPONENT)
    assert g == FgAbelianGroup(0, (2,) * MAX_EXPONENT)
    g, _ = table.lookup("demo", 2 + 4 * (MAX_EXPONENT // 2))
    assert g == C(3**MAX_EXPONENT)


_FIELD_TEXT = st.text(alphabet="Zn0123456789/^()+-| #x.", max_size=8)
_INT = st.integers(-2, 12).map(str)
_NUMBER = st.one_of(_INT, _INT, st.just("-"), _FIELD_TEXT)
_GROUP = st.one_of(
    st.sampled_from(["0", "Z", "Z/2", "Z/2^(4n+3)", "(Z/2)^(2n+1)", "Z/3^2", "(Z/2)^3"]),
    _FIELD_TEXT,
)
_ROW = st.tuples(st.sampled_from(["bo_rp", "demo"]), _NUMBER, _NUMBER, _GROUP, _NUMBER,
                 st.just("src")).map(" | ".join)
_LINE = st.one_of(_ROW, _ROW, _ROW, _FIELD_TEXT)


@settings(max_examples=150, deadline=None)
@given(st.lists(_LINE, min_size=1, max_size=3))
def test_fixture_parser_fuzz(lines):
    # whatever the lines hold, the parser either loads them or raises a
    # ValueError that names the offending line; the fields stay short
    # because a loaded expression is evaluated, and a huge exponent costs
    # time and memory rather than raising
    try:
        parse_fixture_text("\n".join(lines))
    except ValueError as exc:
        assert str(exc).startswith("fixture line "), exc


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


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([1, 2, 3, 4, 6, 8, 9]), max_size=6))
def test_feasible_implies_alternating_product_one(orders):
    # the image order out of the last node of a zero-bounded stretch is the
    # stretch's alternating product, and it must divide the order 1 of the
    # zero node closing it, so image_order_solve needs no separate check
    seq = seq_of(trivial(), *(C(k) if k > 1 else trivial() for k in orders), trivial())
    if image_order_solve(seq).feasible:
        assert alternating_order_check(seq)


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


def test_bo1_les_detects_perturbed_fixture():
    assert not bo1_les_consistency(26, {3: C(8)})
    # the top cover node the trimmed sequences keep
    assert not bo1_les_consistency(26, {25: C(2**40)})


def test_bo1_les_vacuous():
    assert bo1_les_consistency(0)


def test_bo1_les_rejects_negative_override():
    # the sequences never ask below degree 0, so the key would be ignored
    with pytest.raises(ValueError, match="degrees 0 and up"):
        bo1_les_consistency(26, {-1: C(2)})


@pytest.mark.parametrize("degree", [26, 40])
def test_bo1_les_rejects_override_outside_both_sequences(degree):
    # both sequences start below bo1_26 once trimmed to their first zero
    # node, so these overrides would be ignored and the answer stay True
    with pytest.raises(ValueError, match=f"degrees \\[{degree}\\] lie outside"):
        bo1_les_consistency(26, {degree: C(2**40)})


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


def test_audit_serialisation():
    audit = bott_audit("smash", 16)
    data = audit.to_json_dict()
    assert data["has_errata"] is True
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
