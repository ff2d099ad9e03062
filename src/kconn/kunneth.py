"""Degree-wise tensor and Tor over the graded coefficient ring.

The torsion term is computed honestly: the two-stage free resolution of each
cyclic-tower summand is tensored with the classifying-space module and the
kernel of the induced differential is extracted by exact integer linear
algebra.  The short exact sequence then assembles the K-homology of the smash
square, which is cross-checked against the direct-sum decomposition.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

from .abelian import (
    AbelianGroupMap,
    FgAbelianGroup,
    GroupPresentation,
    SimplifiedPresentation,
    _row_times,
    cokernel_group,
    kernel_of_map,
    simplify_presentation,
)
from .kmods import (
    DegreeSlice,
    GradedModulePresentation,
    is_prime,
    lu_bzp_presentation,
    realize_slice,
)


@dataclass(frozen=True)
class SummandResolution:
    """Two-stage free resolution of one cyclic-tower summand.

    Both stages are free on generators in degrees 2j(p-1) + 2i - 1; the
    differential sends the stage-one generator j to p times the stage-zero
    generator j minus v times generator j-1 (no second term at j = 0), and
    the augmentation sends stage-zero generator j to the module generator in
    the same degree.
    """

    p: int
    index: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if not 1 <= self.index <= self.p - 1:
            raise ValueError("summand index out of range")

    def gen_degree(self, j: int) -> int:
        return 2 * j * (self.p - 1) + 2 * self.index - 1

    def stages_through(self, degree: int) -> list[int]:
        """Indices j with generator degree at most ``degree``."""
        out = []
        j = 0
        while self.gen_degree(j) <= degree:
            out.append(j)
            j += 1
        return out


def _ring_compatible(m: GradedModulePresentation, n: GradedModulePresentation):
    if m.p != n.p or m.ring_degree != n.ring_degree:
        raise ValueError("presentations live over different graded rings")


@lru_cache(maxsize=None)
def tensor_degree(
    m: GradedModulePresentation, n_mod: GradedModulePresentation, n: int
) -> FgAbelianGroup:
    """Degree-n piece of the tensor product over Z[v], from the standard
    presentation (generator pairs modulo relation-by-generator rows)."""
    _ring_compatible(m, n_mod)
    d = m.ring_degree
    if n > min(m.truncation_degree, n_mod.truncation_degree) - d:
        raise ValueError(f"degree {n} outside the safe window of the factors")
    if n < 0:
        return FgAbelianGroup.trivial()
    basis: list[tuple[int, int, int]] = []  # (v-exponent, gen of m, gen of n)
    pos: dict[tuple[int, int, int], int] = {}
    for ga, da in enumerate(m.gen_degrees):
        if da >= n:
            continue
        for gb, db in enumerate(n_mod.gen_degrees):
            rem = n - da - db
            if rem >= 0 and rem % d == 0:
                key = (rem // d, ga, gb)
                pos[key] = len(basis)
                basis.append(key)
    rows: list[dict[int, int]] = []  # sparse: column -> coefficient
    # each factor's relations times each generator of the other factor
    for rel_mod, other, left in ((m, n_mod, True), (n_mod, m, False)):
        for rel in rel_mod.relations:
            rel_deg = rel_mod.relation_degree(rel)
            for g, dg in enumerate(other.gen_degrees):
                rem = n - rel_deg - dg
                if rem < 0 or rem % d:
                    continue
                k0 = rem // d
                row: dict[int, int] = {}
                for coeff, exp, h in rel:
                    col = pos[(k0 + exp, h, g) if left else (k0 + exp, g, h)]
                    row[col] = row.get(col, 0) + coeff
                rows.append(row)
    return cokernel_group(len(basis), rows)


@lru_cache(maxsize=None)
def _simplified_slice(
    module: GradedModulePresentation, deg: int
) -> tuple[DegreeSlice, SimplifiedPresentation]:
    """One degree slice and its reduced presentation, simplified once and
    shared by every Tor degree whose blocks include it."""
    slc = realize_slice(module, deg)
    return slc, simplify_presentation(slc.presentation)


@lru_cache(maxsize=None)
def tor1_degree(
    resolution: SummandResolution, module: GradedModulePresentation, n: int
) -> FgAbelianGroup:
    """Degree-n piece of the first derived functor against one summand: the
    kernel of the induced differential on the tensored resolution.

    Stage generator j contributes one block, the reduced presentation of the
    module slice in degree n - gen_degree(j).  Both stages have the same
    blocks, so source and target are one block-diagonal presentation.  The
    differential is p on each block plus -v from block j into block j - 1;
    as gen_degree(j - 1) + deg v == gen_degree(j), the v-term lands exactly
    in the previous block's slice.
    """
    if module.p != resolution.p:
        raise ValueError("resolution and module primes disagree")
    if module.ring_degree != 2 * (module.p - 1):
        raise ValueError("module ring degree must be 2p - 2")
    stages = resolution.stages_through(n)
    if not stages:
        return FgAbelianGroup.trivial()
    blocks = [_simplified_slice(module, n - resolution.gen_degree(j)) for j in stages]
    offsets = []
    total = 0
    for _, simp in blocks:
        offsets.append(total)
        total += simp.presentation.n_gens

    # a block's columns are its reduced generators shifted by its offset
    source = GroupPresentation(total, [
        {off + c: x for c, x in rel.items()}
        for off, (_, simp) in zip(offsets, blocks) for rel in simp.presentation.relations
    ])
    p = module.p
    images = []
    for bj, (slc, simp) in enumerate(blocks):
        if bj:
            # v times v^k g is v^(k+1) g, in the slice of block bj - 1
            up_slc, up_simp = blocks[bj - 1]
            up_pos = {bk: idx for idx, bk in enumerate(up_slc.basis)}
            v_rows = [up_simp.to_min[up_pos[(k + 1, gi)]] for k, gi in slc.basis]
        for t, old in enumerate(simp.from_min):
            # p times the identity into block bj, and -v into block bj - 1
            row = {offsets[bj] + t: p}
            if bj:
                row.update((offsets[bj - 1] + c, -x) for c, x in _row_times(old, v_rows).items())
            images.append(row)
    return kernel_of_map(AbelianGroupMap(source, source, images))


def tor_closed_form(p: int, i: int, internal_degree: int) -> FgAbelianGroup:
    """Closed form of the summand Tor piece: cyclic of order p^(t+1) where
    the internal degree 2m satisfies 2m - 2i + 1 = 2t(p-1) + 2j - 1."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if not 1 <= i <= p - 1:
        raise ValueError("summand index out of range")
    if internal_degree % 2 or internal_degree < 2 * i - 1:
        return FgAbelianGroup.trivial()
    m = internal_degree // 2
    t = (m - i) // (p - 1)
    return FgAbelianGroup.cyclic(p ** (t + 1))


@lru_cache(maxsize=None)
def _lu_window(p: int, need: int) -> GradedModulePresentation:
    # bucket windows so repeated queries share one presentation
    width = ((need + 2 * (2 * p - 2) + 2) // 64 + 1) * 64
    return lu_bzp_presentation(p, width)


def tor_summand_group(p: int, i: int, internal_degree: int, method: str = "resolution") -> FgAbelianGroup:
    """Tor piece for one summand at one internal degree, via the resolution
    kernel or the certified closed form."""
    if method == "closed_form":
        return tor_closed_form(p, i, internal_degree)
    if method != "resolution":
        raise ValueError(f"unknown Tor method {method!r}")
    if internal_degree < 0:
        return FgAbelianGroup.trivial()
    module = _lu_window(p, internal_degree)
    return tor1_degree(SummandResolution(p, i), module, internal_degree)


def wedge_count(p: int, n: int) -> int:
    """Number of mod-p wedge classes in degree n of the decomposition:
    triples (a, i, j) with 0 <= a <= p-2, i, j >= 1 and 2a + 2i + 2j - 2 = n."""
    count = 0
    for a in range(p - 1):
        rest = n + 2 - 2 * a  # need 2i + 2j = rest
        if rest % 2 == 0:
            half = rest // 2  # i + j = half, i, j >= 1
            if half >= 2:
                count += half - 1
    return count


def tensor_part(p: int, n: int) -> FgAbelianGroup:
    """Tensor half of the smash answer in total degree n, reassembled over
    the shifted summand copies; nonzero only in even degrees."""
    lu = _lu_window(p, n)
    parts = []
    for a in range(p - 1):
        deg = n - 2 * a
        if deg >= 0:
            parts.append(tensor_degree(lu, lu, deg))
    return FgAbelianGroup.trivial().direct_sum(*parts)


def tor_part(p: int, n: int, method: str = "resolution") -> FgAbelianGroup:
    """Torsion half of the smash answer in total degree n: summand Tor pieces
    at internal degree n - 1 - 2a; nonzero only in odd degrees."""
    parts = []
    for a in range(p - 1):
        internal = n - 1 - 2 * a
        if internal < 0:
            continue
        for i in range(1, p):
            parts.append(tor_summand_group(p, i, internal, method))
    return FgAbelianGroup.trivial().direct_sum(*parts)


def kunneth_smash_group(p: int, n: int, method: str = "resolution") -> FgAbelianGroup:
    """Reduced bu of the smash square of B Z/p in degree n, assembled from the
    short exact sequence: the tensor term carries the even degrees and the
    shifted Tor term the odd ones, so no extension problem arises."""
    if n < 0:
        raise ValueError("degree must be non-negative")
    if n % 2 == 0:
        return tensor_part(p, n)
    return tor_part(p, n, method)


@dataclass(frozen=True)
class KunnethRecord:
    degree: int
    tensor: FgAbelianGroup
    tor: FgAbelianGroup
    assembled: FgAbelianGroup
    crosscheck: FgAbelianGroup
    ok: bool


@dataclass(frozen=True)
class KunnethReport:
    p: int
    n_max: int
    records: tuple[KunnethRecord, ...]

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.records)

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "n_max": self.n_max,
            "all_ok": self.all_ok,
            "records": [
                {
                    "degree": r.degree,
                    "tensor": r.tensor.to_json_dict(),
                    "tor": r.tor.to_json_dict(),
                    "assembled": r.assembled.to_json_dict(),
                    "crosscheck": r.crosscheck.to_json_dict(),
                    "ok": r.ok,
                }
                for r in self.records
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)

    def to_text(self) -> str:
        lines = [f"smash K-homology check, p={self.p}, degrees 0..{self.n_max}"]
        header = f"{'n':>4}  {'tensor':<18}{'tor[n-1]':<18}{'assembled':<18}{'crosscheck':<18}verdict"
        lines.append(header)
        for r in self.records:
            lines.append(
                f"{r.degree:>4}  {str(r.tensor):<18}{str(r.tor):<18}"
                f"{str(r.assembled):<18}{str(r.crosscheck):<18}"
                + ("ok" if r.ok else "MISMATCH")
            )
        return "\n".join(lines)


def decomposition_crosscheck(p: int, n: int) -> FgAbelianGroup:
    """Right-hand side of the decomposition: shifted classifying-space copies
    plus the elementary wedge part."""
    from .kmods import bu_bzp_group

    parts = [bu_bzp_group(p, n - 2 * i) for i in range(1, p)]
    parts.append(
        FgAbelianGroup.from_cyclic_orders(0, [p] * wedge_count(p, n))
    )
    return FgAbelianGroup.trivial().direct_sum(*parts)


def verify_bu_decomposition(p: int, n_max: int, method: str = "resolution") -> KunnethReport:
    """Degree-wise comparison of the assembled smash groups against the
    direct-sum decomposition; failures are recorded verdicts, not errors."""
    records = []
    for n in range(n_max + 1):
        tens = tensor_part(p, n) if n % 2 == 0 else FgAbelianGroup.trivial()
        tor = tor_part(p, n, method) if n % 2 else FgAbelianGroup.trivial()
        assembled = tens.direct_sum(tor)
        cross = decomposition_crosscheck(p, n)
        records.append(KunnethRecord(n, tens, tor, assembled, cross, assembled == cross))
    return KunnethReport(p, n_max, tuple(records))
