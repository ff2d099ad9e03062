"""Long-exact-sequence order bookkeeping and the published K-theory tables.

The published tables ship as data fixtures (never hard-coded in logic), and
so does a deliberate fault: it is one more fixture row.  The audit populates
the Bott sequence with computed unitary groups and either the fixture or the
decomposition-derived orthogonal groups, and checks every zero-bounded
stretch by telescoping image orders.  Divergence between the printed smash
table and exactness is reported as errata, never silently corrected.
"""

from __future__ import annotations

import re
import sys
from functools import lru_cache
from importlib import resources

from ._record import Record
from .abelian import FgAbelianGroup, render_group
from .kmods import bu_bzp_group
from .kunneth import kunneth_smash_group
from .steenrod import x_count

# Largest base, exponent or multiplicity a group expression may evaluate to.
# The packaged rows reach 24 at the degrees the golden grids and the
# benchmark query.  Together the three bound the size of an evaluated group;
# unbounded, a row such as ``(Z/2)^(n)`` at n = 200000 stalls a load or a
# query.
MAX_EXPONENT = 4096


# --- symbolic group expressions ----------------------------------------------

# 0, Z, Z/B, Z/B^E or (Z/B)^E, where E is an integer or (an+b); the lookahead
# lets a parenthesised base stand only before its exponent.
_EXPRESSION = re.compile(r"(0|Z)|(\()?Z/(\d+)(?(2)\)(?=\^))(?:\^(?:(\d+)|\(([^)]+)\)))?")
_LINEAR = re.compile(r"(?:(\d*)n)?\s*(?:\+?\s*(\d+))?")


def _bounded(kind: str, value: int, text: str, n: int) -> int:
    if value < 0:
        raise ValueError(f"negative {kind} in {text!r} at n={n}")
    if value > MAX_EXPONENT:
        raise ValueError(f"{kind} {value} in {text!r} at n={n} exceeds {MAX_EXPONENT}")
    return value


def _linear(text: str, n: int) -> int:
    """The value at n of an exponent ``an+b``, ``an``, ``n`` or ``b``."""
    text = text.strip()
    m = _LINEAR.fullmatch(text)
    if not m or (m[1] is None and m[2] is None):
        raise ValueError(f"cannot parse linear expression {text!r}")
    slope = 0 if m[1] is None else int(m[1] or 1)
    return slope * n + int(m[2] or 0)


class GroupExpression(Record):
    """A group depending linearly on the residue-class parameter n, e.g.
    ``Z/2^(4n+3)`` or ``(Z/2)^(2n+1)``."""

    text: str

    def evaluate(self, n: int) -> FgAbelianGroup:
        text = self.text.strip()
        m = _EXPRESSION.fullmatch(text)
        if not m:
            raise ValueError(f"cannot parse group expression {text!r}")
        constant, elementary, digits, power, linear = m.groups()
        if constant:
            return FgAbelianGroup.free(1) if constant == "Z" else FgAbelianGroup.trivial()
        base = _bounded("base", int(digits), text, n)
        if base == 0:  # Z/0 would read as Z, so a typo would add a free summand
            raise ValueError(f"base 0 in {text!r} at n={n}")
        kind = "multiplicity" if elementary else "exponent"
        e = _bounded(kind, _linear(power or linear or "1", n), text, n)  # Z/B is Z/B^1
        if elementary:
            return FgAbelianGroup.from_cyclic_orders(0, [base] * e)
        # an order past the interpreter's digit limit could not be printed;
        # 8^limit < 10^limit, so 10^limit is formed only for larger orders
        order, limit = base**e, getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit and order.bit_length() > 3 * limit and order >= 10**limit:
            raise ValueError(f"Z/{base}^{e} in {text!r} at n={n} has more than {limit} "
                             "digits, the most this Python prints")
        return FgAbelianGroup.cyclic(order)


# --- fixture tables ------------------------------------------------------------

class FixtureRow(Record):
    theory: str
    residue: int
    modulus: int
    expression: GroupExpression
    min_n: int
    source: str

    def matches(self, degree: int) -> bool:
        if self.modulus == 0:
            return degree == self.residue
        if degree < 0 or degree % self.modulus != self.residue % self.modulus:
            return False
        return (degree - self.residue) // self.modulus >= self.min_n

    def value(self, degree: int) -> FgAbelianGroup:
        if not self.matches(degree):
            raise ValueError(f"row {self.row_name()} does not cover degree {degree}")
        n = 0 if self.modulus == 0 else (degree - self.residue) // self.modulus
        return self.expression.evaluate(n)

    def row_name(self) -> str:
        if self.modulus == 0:
            return f"m={self.residue}"
        tag = f"{self.modulus}n" if self.residue == 0 else f"{self.modulus}n+{self.residue}"
        if self.min_n > 0:
            return f"{tag} (n>={self.min_n})"
        return tag


class FixtureTable(Record):
    rows: tuple[FixtureRow, ...]

    def rows_for(self, theory: str) -> tuple[FixtureRow, ...]:
        return tuple(r for r in self.rows if r.theory == theory)

    def lookup(self, theory: str, degree: int) -> tuple[FgAbelianGroup, FixtureRow]:
        rows = self.rows_for(theory)
        if not rows:
            raise KeyError(f"no fixture rows for theory {theory!r}")
        # exact-degree rows take precedence; min keeps the first of its ties
        row = min((r for r in rows if r.matches(degree)), key=lambda r: r.modulus != 0,
                  default=None)
        if row is None:
            raise KeyError(f"theory {theory!r} has no row covering degree {degree}")
        return row.value(degree), row


def _fixture_int(lineno: int, field: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"fixture line {lineno}: {field} {text!r} is not an integer") from None


def parse_fixture_text(text: str) -> FixtureTable:
    """Parse fixture rows; every bad field raises ``ValueError`` naming its
    line, and every group expression is checked at its row's ``min_n``."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) != 6:
            raise ValueError(f"fixture line {lineno}: expected 6 fields, got {len(parts)}")
        theory, residue, modulus, group, min_n, source = parts
        row = FixtureRow(
            theory=theory,
            residue=_fixture_int(lineno, "residue", residue),
            modulus=_fixture_int(lineno, "modulus", modulus),
            expression=GroupExpression(group),
            min_n=0 if min_n == "-" else _fixture_int(lineno, "min_n", min_n),
            source=source,
        )
        for field in ("residue", "modulus", "min_n"):
            if getattr(row, field) < 0:
                raise ValueError(f"fixture line {lineno}: negative {field} {getattr(row, field)}")
        try:
            row.expression.evaluate(row.min_n)
        except ValueError as exc:
            raise ValueError(f"fixture line {lineno}: {exc}") from None
        rows.append(row)
    return FixtureTable(tuple(rows))


@lru_cache(maxsize=1)
def _packaged_table() -> FixtureTable:
    text = resources.files("kconn.data").joinpath("tables.txt").read_text("utf-8")
    return parse_fixture_text(text)


def load_fixture_table(path: str | None = None) -> FixtureTable:
    """The fixture tables in the file at ``path``, read afresh on every call,
    or the packaged tables, parsed once per process, when ``path`` is None."""
    if path is None:
        return _packaged_table()
    with open(path, "r", encoding="utf-8") as fh:
        return parse_fixture_text(fh.read())


def table_group(theory: str, n: int, table: FixtureTable | None = None) -> FgAbelianGroup:
    """The group of a fixture theory in degree ``n``: ``bo_rp`` (reduced bo
    of infinite real projective space), ``bo1_rp`` (its 0-connected-cover
    theory), ``h_rp`` (its reduced integral homology) or any other theory
    of the table."""
    if n < 0:
        raise ValueError("degree must be non-negative")
    table = table or load_fixture_table()
    return table.lookup(theory, n)[0]


# --- long exact sequences ---------------------------------------------------------

class SequenceNode(Record):
    label: str
    group: FgAbelianGroup


class LongExactSequence(Record):
    """Ordered nodes of an exact sequence with arrow labels as annotations.
    Checks require the sequence to start and end at trivial nodes."""

    nodes: tuple[SequenceNode, ...]
    arrow_labels: tuple[str, ...] = ()

    def __post_init__(self):
        if self.arrow_labels and len(self.arrow_labels) != len(self.nodes) - 1:
            raise ValueError("need one arrow label between consecutive nodes")


def _require_checkable(seq: LongExactSequence):
    if len(seq.nodes) < 2:
        raise ValueError("sequence too short to check")
    if not seq.nodes[0].group.is_trivial() or not seq.nodes[-1].group.is_trivial():
        raise ValueError("sequence must begin and end at known-zero nodes")
    for node in seq.nodes:
        if node.group.free_rank:
            raise ValueError(
                f"infinite interior group at {node.label} without free-rank bookkeeping"
            )


class ImageOrderResult(Record):
    feasible: bool
    image_orders: tuple[int, ...]
    infeasible_at: int | None = None
    reason: str = ""


def image_order_solve(seq: LongExactSequence) -> ImageOrderResult:
    """Propagate image orders from the zero ends: the image order out of a
    node is its order divided by the image order coming in.  Infeasible when
    a division is non-integral or an image order does not divide its target.

    Feasibility implies the multiplicative consequence of exactness, that over
    every zero-bounded stretch the alternating product of the orders is 1:
    the image order out of the last node of a stretch is that alternating
    product, and it must divide the order 1 of the zero node closing it."""
    _require_checkable(seq)
    orders: list[int] = []
    prev = 1
    for k in range(len(seq.nodes) - 1):
        total = seq.nodes[k].group.order()
        if total % prev:
            return ImageOrderResult(
                False,
                tuple(orders),
                k,
                f"order of {seq.nodes[k].label} is not divisible by the incoming image",
            )
        out = total // prev
        tgt_order = seq.nodes[k + 1].group.order()
        if tgt_order % out:
            return ImageOrderResult(
                False,
                tuple(orders),
                k,
                f"image order {out} out of {seq.nodes[k].label} does not divide "
                f"|{seq.nodes[k + 1].label}| = {tgt_order}",
            )
        orders.append(out)
        prev = out
    return ImageOrderResult(True, tuple(orders))


# --- sequence builders --------------------------------------------------------------

def _trim_to_zero(nodes: list[SequenceNode], labels: list[str]):
    start = next((i for i, n in enumerate(nodes) if n.group.is_trivial()), None)
    if start is None:
        raise ValueError("no zero node to anchor the sequence")
    return tuple(nodes[start:]), tuple(labels[start:])


# One period of a sequence, as (name, shift, arrow) triples: period i holds
# the node ``name_{i + shift}`` of each triple, and the triple's arrow leaves
# that node.
#
# ... -> bo_i -> bu_i -> bo_{i-2} -> bo_{i-1} -> bu_{i-1} -> ..., relating the
# orthogonal and unitary theories
BOTT = (("bo", 0, "c"), ("bu", 0, "d"), ("bo", -2, "eta"))
# ... -> cover_i -> bo_i -> H_i -> cover_{i-1} -> ... from the cofiber
# sequence of the zeroth-homotopy truncation
COVER = (("bo1", 0, "j"), ("bo", 0, "pi"), ("H", 0, "d"))
# ... -> bo_{i-1} -> cover_i -> bu_{i-2} -> bo_{i-2} -> ... from the
# suspension cofiber sequence defining the cover theory
ETA_COVER = (("bo", -1, "eta~"), ("bo1", 0, "c~"), ("bu", -2, "d"))


def exact_sequence(terms, groups, top: int) -> LongExactSequence:
    """The 3-periodic long exact sequence of ``terms`` (``BOTT``, ``COVER``
    or ``ETA_COVER``) built from degree ``top`` down to the vanishing range;
    ``groups`` maps each name to its group function.

    Every group below degree 0 is trivial: a group function is called only
    for degrees 0 and up, and may raise on a degree it does not cover."""
    nodes: list[SequenceNode] = []
    labels: list[str] = []
    for i in range(top, -2, -1):
        for name, shift, arrow in terms:
            n = i + shift
            group = groups[name](n) if n >= 0 else FgAbelianGroup.trivial()
            nodes.append(SequenceNode(f"{name}_{n}", group))
            labels.append(arrow)
    nodes, labels = _trim_to_zero(nodes, labels)
    return LongExactSequence(nodes, labels[: len(nodes) - 1])


def bott_sequence(bo_at, bu_at, top: int) -> LongExactSequence:
    """The long exact sequence relating the orthogonal and unitary theories
    (``BOTT``), built from degree ``top`` down to the vanishing range."""
    return exact_sequence(BOTT, {"bo": bo_at, "bu": bu_at}, top)


# --- the decomposition and the audit ---------------------------------------------------

def bo_smash_group(m: int, table: FixtureTable | None = None) -> FgAbelianGroup:
    """Reduced bo of the smash square of infinite real projective space via
    the direct-sum decomposition: the cover theory of one factor plus one
    mod-2 class for each wedge pair in even degrees."""
    if m < 0:
        raise ValueError("degree must be non-negative")
    base = table_group("bo1_rp", m, table)
    if m % 2:
        return base
    wedge = FgAbelianGroup.from_cyclic_orders(0, [2] * x_count(m // 2))
    return base.direct_sum(wedge)


def bo1_les_consistency(n_max: int, table: FixtureTable | None = None) -> bool:
    """Feasibility of both long exact sequences through the cover theory,
    ``COVER`` and ``ETA_COVER``, populated from the fixture tables through
    degree ``n_max``.  A fault is planted as a fixture row: an exact-degree
    ``bo1_rp`` row put in front of the packaged rows replaces one cover value."""
    table = table or load_fixture_table()
    groups = {
        "bo": lambda n: table_group("bo_rp", n, table),
        "bo1": lambda n: table_group("bo1_rp", n, table),
        "H": lambda n: table_group("h_rp", n, table),
        "bu": lambda n: bu_bzp_group(2, n),
    }
    return all(
        image_order_solve(exact_sequence(terms, groups, n_max)).feasible
        for terms in (COVER, ETA_COVER)
    )


class RowFinding(Record):
    row: str
    status: str  # "confirmed" | "infeasible_as_printed" | "mismatch_but_feasible"
    degrees: tuple[int, ...]
    printed: tuple[str, ...]
    computed: tuple[str, ...]
    corrected: str | None
    detail: str


class BottAudit(Record):
    space: str
    n_max: int
    anchor: int
    baseline_feasible: bool
    findings: tuple[RowFinding, ...]
    notes: tuple[str, ...]

    @property
    def has_errata(self) -> bool:
        return any(f.status != "confirmed" for f in self.findings)

    def to_text(self) -> str:
        lines = [
            f"Bott-sequence audit: space={self.space}, degrees 0..{self.n_max}",
            f"zero anchor at degree {self.anchor}",
            f"baseline feasibility: {'pass' if self.baseline_feasible else 'FAIL'}",
        ]
        if self.findings:
            lines.append("")
            lines.append("row-by-row comparison with the printed table:")
            for f in self.findings:
                lines.append(f"  row {f.row}: {f.status}")
        errata = [f for f in self.findings if f.status != "confirmed"]
        lines.append("")
        if errata or self.notes:
            lines.append("errata:")
            for f in errata:
                lines.append(f"  row {f.row} as printed is {f.status}")
                for deg, printed, computed in zip(f.degrees, f.printed, f.computed):
                    if printed != computed:
                        lines.append(
                            f"    degree {deg}: printed {printed}, exactness forces {computed}"
                        )
                if f.corrected:
                    lines.append(f"    corrected row value: {f.corrected}")
                if f.detail:
                    lines.append(f"    {f.detail}")
            for note in self.notes:
                lines.append(f"  {note}")
        else:
            lines.append("errata: none")
        return "\n".join(lines)


def bott_audit(space: str, n_max: int, table: FixtureTable | None = None) -> BottAudit:
    """Feasibility audit of the Bott sequence.

    For projective space the fixture table itself is checked.  For the smash
    square the baseline uses the decomposition-derived groups, then every row
    of the printed table is compared and, where it diverges, substituted back
    into the sequence to demonstrate infeasibility; findings are report
    entries, never exceptions.
    """
    if space not in ("rp", "smash"):
        raise ValueError("space must be 'rp' or 'smash'")
    table = table or load_fixture_table()
    if space == "rp":
        seq = bott_sequence(
            lambda n: table_group("bo_rp", n, table), lambda n: bu_bzp_group(2, n), n_max
        )
        feasible = image_order_solve(seq).feasible
        anchor = int(seq.nodes[0].label.split("_")[1])
        return BottAudit("rp", n_max, anchor, feasible, (), ())

    computed = {m: bo_smash_group(m, table) for m in range(n_max + 1)}
    bu = {m: kunneth_smash_group(2, m, method="closed_form") for m in range(n_max + 1)}
    baseline = bott_sequence(computed.__getitem__, bu.__getitem__, n_max)
    baseline_ok = image_order_solve(baseline).feasible
    anchor = int(baseline.nodes[0].label.split("_")[1])

    findings = []
    for row in table.rows_for("bo_smash_printed"):
        degrees = tuple(m for m in range(n_max + 1) if row.matches(m))
        if not degrees:
            continue
        printed_vals = {m: row.value(m) for m in degrees}
        mismatched = [m for m in degrees if printed_vals[m] != computed[m]]
        printed_str = tuple(render_group(printed_vals[m]) for m in degrees)
        computed_str = tuple(render_group(computed[m]) for m in degrees)
        if not mismatched:
            findings.append(RowFinding(row.row_name(), "confirmed", degrees, printed_str,
                                       computed_str, None, ""))
            continue
        seq = bott_sequence({**computed, **printed_vals}.__getitem__, bu.__getitem__, n_max)
        solve = image_order_solve(seq)
        if not solve.feasible:
            position = seq.nodes[solve.infeasible_at].label
            detail = f"propagation fails at {position}: {solve.reason}"
            status = "infeasible_as_printed"
        else:
            detail = "printed values differ from the decomposition but pass the order checks"
            status = "mismatch_but_feasible"
        corrected = _corrected_expression(table, row)
        findings.append(
            RowFinding(
                row.row_name(), status, degrees, printed_str, computed_str, corrected, detail
            )
        )

    notes = _cover_column_notes(table, n_max)
    return BottAudit("smash", n_max, anchor, baseline_ok, tuple(findings), notes)


def _corrected_expression(table: FixtureTable, row: FixtureRow) -> str | None:
    """The corrected value of a flagged odd row is the cover-theory entry in
    the same residue class."""
    for cand in table.rows_for("bo1_rp"):
        if cand.modulus == row.modulus and cand.residue == row.residue and cand.modulus:
            return cand.expression.text
    return None


def _cover_column_notes(table: FixtureTable, n_max: int) -> tuple[str, ...]:
    notes = []
    for row in table.rows_for("bo1_printed"):
        degrees = [m for m in range(n_max + 1) if row.matches(m)]
        bad = [
            m
            for m in degrees
            if row.value(m) != table_group("bo1_rp", m, table)
        ]
        if bad:
            notes.append(
                f"printed cover column, row {row.row_name()}: disagrees with the "
                f"cover table at degrees {bad} (printed {row.expression.text})"
            )
    return tuple(notes)
