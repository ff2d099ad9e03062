"""The acceptance battery: every verification the artifact promises, runnable
from the test suite and from the command line.

Each criterion returns a result record; nothing raises on a mathematical
failure, so a red criterion is reported rather than hidden.  Criterion 5's
exactness clause is implemented exactly as stated and is expected to fail in
degree 4, where the published three-term sequence has dimensions 2, 2, 1 and
cannot be exact; the dimension closed forms it also demands all hold.
"""

from __future__ import annotations

from itertools import product

from ._record import Record
from .abelian import FgAbelianGroup
from .exactseq import (
    FixtureRow,
    FixtureTable,
    GroupExpression,
    bo1_les_consistency,
    bo_smash_group,
    bott_audit,
    bott_sequence,
    image_order_solve,
    load_fixture_table,
)
from .kmods import (
    bu_bzp_group,
    ku_smash_check,
    lu_closed_form,
    lu_module,
    realize_degree,
)
from .kunneth import (
    kunneth_smash_group,
    tensor_part,
    tor_closed_form,
    tor_part,
    tor_summand_group,
    verify_bu_decomposition,
)
from .steenrod import hom_dim, verify_hom_sequence, x_count


class CriterionResult(Record):
    number: int
    title: str
    passed: bool
    detail: str


def _result(number, title, failures, extra=""):
    if failures:
        shown = "; ".join(failures[:4])
        if len(failures) > 4:
            shown += f"; ... {len(failures)} failures total"
        return CriterionResult(number, title, False, shown)
    return CriterionResult(number, title, True, extra)


def criterion_1() -> CriterionResult:
    """Closed form vs engine for the classifying-space module."""
    failures = []
    for p in (2, 3, 5):
        module = lu_module(p)
        for n in range(61):
            engine = realize_degree(module, n)
            closed = lu_closed_form(p, n)
            if engine != closed:
                failures.append(f"p={p} n={n}: engine {engine} vs closed {closed}")
    spots = [
        (bu_bzp_group(2, 3), FgAbelianGroup.cyclic(4), "bu_3(BZ/2)"),
        (bu_bzp_group(2, 7), FgAbelianGroup.cyclic(16), "bu_7(BZ/2)"),
        (lu_closed_form(3, 9), FgAbelianGroup.cyclic(27), "lu_9(BZ/3)"),
    ]
    for got, want, name in spots:
        if got != want:
            failures.append(f"{name}: got {got}, want {want}")
    return _result(1, "degree realisation equals the closed form (p=2,3,5; n<=60)", failures)


def criterion_2() -> CriterionResult:
    """Kernel-computed torsion equals the closed form."""
    failures = []
    for p in (2, 3):
        for i in range(1, p):
            for internal in range(41):
                engine = tor_summand_group(p, i, internal)
                closed = tor_closed_form(p, i, internal)
                if engine != closed:
                    failures.append(f"p={p} i={i} deg={internal}: {engine} vs {closed}")
    return _result(2, "torsion kernel equals the closed form (p=2,3; internal<=40)", failures)


def criterion_3() -> CriterionResult:
    """Order equation of the short exact sequence, with parity split."""
    failures = []
    for p in (2, 3):
        for n in range(41):
            tens = tensor_part(p, n)
            tor = tor_part(p, n)
            if n % 2 == 0 and not tor.is_trivial():
                failures.append(f"p={p} n={n}: torsion term in even degree")
            if n % 2 == 1 and not tens.is_trivial():
                failures.append(f"p={p} n={n}: tensor term in odd degree")
            total = kunneth_smash_group(p, n)
            if total.order() != tens.order() * tor.order():
                failures.append(f"p={p} n={n}: |total| != |tensor| * |tor|")
    return _result(3, "short-exact-sequence order equation (p=2,3; n<=40)", failures)


def criterion_4() -> CriterionResult:
    """Degree-wise direct-sum decomposition of the smash groups."""
    failures = []
    for p in (2, 3):
        report = verify_bu_decomposition(p, 40)
        for rec in report.records:
            if not rec.ok:
                failures.append(
                    f"p={p} n={rec.degree}: assembled {rec.assembled} vs {rec.crosscheck}"
                )
    for m in range(1, 20):
        got = kunneth_smash_group(2, 2 * m + 1)
        want = FgAbelianGroup.cyclic(2**m)
        if got != want:
            failures.append(f"odd p=2 degree {2 * m + 1}: {got} vs {want}")
    return _result(4, "direct-sum decomposition of the smash groups (p=2,3; n<=40)", failures)


def criterion_5() -> CriterionResult:
    """Hom dimensions and exactness of the functional sequence."""
    failures = []
    for i in range(2, 31):
        want_b = (i - 1) // 2 if i % 2 else 1 + i // 2
        got_b = hom_dim("B", "smash", 2 * i)
        if got_b != want_b:
            failures.append(f"restricted dim at 2i={2 * i}: {got_b} vs {want_b}")
        got_e = hom_dim("E", "smash", 2 * i)
        if got_e != i:
            failures.append(f"exterior dim at 2i={2 * i}: {got_e} vs {i}")
    report = verify_hom_sequence(60)
    for rec in report.records:
        if not rec.exact:
            failures.append(
                f"sequence not exact at degree {rec.degree} "
                f"(dims {rec.dim_b} -> {rec.dim_e} -> {rec.dim_b_lower})"
            )
    return _result(5, "Hom dimensions and exactness at every even degree <= 60", failures)


def criterion_6() -> CriterionResult:
    """Wedge pair count against the parity closed form."""
    failures = []
    for n in range(101):
        want = n // 2 if n % 2 == 0 else (n - 1) // 2
        if x_count(n) != want:
            failures.append(f"n={n}: {x_count(n)} vs {want}")
    return _result(6, "wedge pair count closed form (n<=100)", failures)


def criterion_7() -> CriterionResult:
    """Even-degree detection: smash dimension equals the exterior Hom dimension."""
    failures = []
    for i in range(2, 31):
        group = kunneth_smash_group(2, 2 * i)
        dim = group.elementary_rank(2)
        want = hom_dim("E", "smash", 2 * i)
        if dim != want:
            failures.append(f"2i={2 * i}: dim {dim} vs Hom dim {want}")
    return _result(7, "even-degree detection via exterior functionals (2<=i<=30)", failures)


def criterion_8() -> CriterionResult:
    """Feasibility of both cover long exact sequences, and fault detection: a
    degree-3 Z/8 planted as an exact-degree cover row must be caught."""
    failures = []
    if not bo1_les_consistency(50):
        failures.append("fixture tables fail the cover-sequence order checks at <=50")
    planted = FixtureRow("bo1_rp", 3, 0, GroupExpression("Z/8"), 0, "planted fault")
    if bo1_les_consistency(50, FixtureTable((planted, *load_fixture_table().rows))):
        failures.append("perturbed degree-3 cover fixture was not detected")
    return _result(8, "cover-sequence feasibility through degree 50 + fault detection", failures)


def criterion_9() -> CriterionResult:
    """The printed smash table: confirmed rows reproduce, odd rows 8n+3 and
    8n+7 are flagged infeasible, and the corrected values pass."""
    failures = []
    audit = bott_audit("smash", 50)
    if not audit.baseline_feasible:
        failures.append("corrected (decomposition-derived) values fail the Bott checks")
    flagged = {f.row.split(" ")[0] for f in audit.findings if f.status == "infeasible_as_printed"}
    confirmed = {f.row.split(" ")[0] for f in audit.findings if f.status == "confirmed"}
    for row in ("8n+3", "8n+7"):
        if row not in flagged:
            failures.append(f"printed row {row} was not flagged infeasible")
    for row in ("m=0", "m=1", "m=2", "8n", "8n+1", "8n+2", "8n+4", "8n+5", "8n+6"):
        if row not in confirmed:
            failures.append(f"row {row} of the printed table did not reproduce")
    table = load_fixture_table()
    printed_3 = table.lookup("bo_smash_printed", 3)[0]
    if printed_3.order() is None or printed_3.order() <= 4:
        failures.append("printed degree-3 entry is not of order > 4 (forced bound broken)")
    if not _degree_3_instance_forced(table):
        failures.append("substituting the printed degree-3 entry alone was not refuted")
    for f in audit.findings:
        if f.status == "infeasible_as_printed" and not f.detail:
            failures.append(f"row {f.row}: no infeasibility witness recorded")
    return _result(
        9,
        "printed smash table audited: even/8n+1/8n+5 rows confirmed, 8n+3 and 8n+7 flagged",
        failures,
        extra=f"errata rows: {sorted(flagged)}",
    )


def _degree_3_instance_forced(table) -> bool:
    """The single degree-3 printed entry is already infeasible: with every
    other group at its corrected value, the sequence bounds the degree-3
    order by 4, below the printed 8."""
    printed_3 = table.lookup("bo_smash_printed", 3)[0]

    def bo_at(n: int) -> FgAbelianGroup:
        return printed_3 if n == 3 else bo_smash_group(n, table)

    seq = bott_sequence(bo_at, lambda n: kunneth_smash_group(2, n, "closed_form"), 13)
    return not image_order_solve(seq).feasible


def criterion_10() -> CriterionResult:
    """Truncated projective-space K-ring check across all small truncations."""
    failures = []
    for r, v in product(range(1, 11), range(1, 11)):
        chk = ku_smash_check(r, v)
        if not chk.passed:
            failures.append(f"(r,v)=({r},{v})")
    return _result(10, "truncated K-ring orders and generating class (r,v<=10)", failures)


ALL_CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
)


def run_acceptance() -> list[CriterionResult]:
    return [fn() for fn in ALL_CRITERIA]
