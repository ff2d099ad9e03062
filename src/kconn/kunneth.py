"""Degree-wise tensor and Tor over the graded coefficient ring.

A presentation F1 -> F0 of the first factor, tensored with the second factor
N, gives one map F1 (x) N -> F0 (x) N, built degree-wise from the reduced
slices of N.  Its cokernel is the tensor term.  When the relations are
independent over Z[v], F1 -> F0 is a free resolution and its kernel is the
torsion term, extracted by exact integer linear algebra.  The presentation
of the classifying-space module is such a resolution, being the direct sum
of its cyclic-tower summands, so both terms of each degree come from the one
map of that module tensored with itself.  The short exact sequence then
assembles the K-homology of the smash square, which is cross-checked against
the direct-sum decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .abelian import (
    FgAbelianGroup,
    GroupPresentation,
    SimplifiedPresentation,
    cokernel_group,
    kernel_of_map,
    simplify_presentation,
)
from .kmods import (
    DegreeSlice,
    GradedModulePresentation,
    check_prime,
    lu_bzp_presentation,
    realize_slice,
    summand_presentation,
)


@lru_cache(maxsize=None)
def _simplified_slice(
    module: GradedModulePresentation, deg: int
) -> tuple[DegreeSlice, SimplifiedPresentation]:
    """One degree slice and its reduced presentation, simplified once and
    shared by every tensor and Tor degree whose blocks include it."""
    slc = realize_slice(module, deg)
    return slc, simplify_presentation(slc.presentation)


def _tensor_map(m: GradedModulePresentation, n_mod: GradedModulePresentation, n: int):
    """Degree n of F1 (x) N -> F0 (x) N, where F0 is free on the generators
    of ``m``, F1 free on its relations, and F1 -> F0 sends each relation to
    its terms; N is ``n_mod``.  Both factors must live over one graded ring,
    and degree n must lie in the safe window of both.

    A generator or relation of ``m`` in degree e <= n contributes one block,
    the reduced slice of N in degree n - e, so each side is a block-diagonal
    presentation.  A relation term (c, k, g) sends the old coordinate
    v^j g_i of its block to c v^(j+k) g_i, read through ``to_min`` of the
    block of g: that slice lies in degree n - e + kd.  Returns the source
    and the target, each as its generator count and relation rows, and the
    images of the source's generators.
    """
    if m.p != n_mod.p or m.ring_degree != n_mod.ring_degree:
        raise ValueError("presentations live over different graded rings")
    if n > min(m.truncation_degree, n_mod.truncation_degree) - m.ring_degree:
        raise ValueError(f"degree {n} outside the safe window of the factors")
    rel_degrees = [m.relation_degree(rel) for rel in m.relations]
    slices = {e: _simplified_slice(n_mod, n - e) for e in {*m.gen_degrees, *rel_degrees} if e <= n}

    def blocks(degrees):
        out, total = {}, 0
        for idx, e in enumerate(degrees):
            if e <= n:
                out[idx] = (total, *slices[e])
                total += slices[e][1].presentation.n_gens
        rows = [{off + c: x for c, x in rel.items()}
                for off, _, simp in out.values() for rel in simp.presentation.relations]
        return out, (total, rows)

    rel_blocks, source = blocks(rel_degrees)
    gen_blocks, target = blocks(m.gen_degrees)
    images = []
    for r, (_, slc, simp) in rel_blocks.items():
        for old in simp.from_min:
            row: dict[int, int] = {}
            for q, x in old.items():
                j, gi = slc.basis[q]
                for c, k, g in m.relations[r]:
                    off, g_slc, g_simp = gen_blocks[g]
                    for col, y in g_simp.to_min[g_slc.basis.index((j + k, gi))].items():
                        row[off + col] = row.get(off + col, 0) + c * x * y
            images.append({col: x for col, x in row.items() if x})
    return source, target, images


@lru_cache(maxsize=None)
def tensor_degree(
    m: GradedModulePresentation, n_mod: GradedModulePresentation, n: int
) -> FgAbelianGroup:
    """Degree-n piece of the tensor product over Z[v]: the cokernel of
    F1 (x) N -> F0 (x) N, by right exactness of the tensor product."""
    _, (n_gens, relations), images = _tensor_map(m, n_mod, n)
    return cokernel_group(n_gens, relations + images)


@lru_cache(maxsize=None)
def tor1_degree(
    m: GradedModulePresentation, n_mod: GradedModulePresentation, n: int
) -> FgAbelianGroup:
    """Degree-n piece of the first derived functor over Z[v]: the kernel of
    F1 (x) N -> F0 (x) N.  That kernel is Tor_1 only when the relations of
    ``m`` are independent over Z[v], so that F1 -> F0 is a free resolution;
    the caller guarantees it."""
    source, target, images = _tensor_map(m, n_mod, n)
    return kernel_of_map(GroupPresentation(*source), GroupPresentation(*target), images)


def tor_closed_form(p: int, i: int, internal_degree: int) -> FgAbelianGroup:
    """Closed form of the summand Tor piece: cyclic of order p^(t+1) where
    the internal degree 2m satisfies 2m - 2i + 1 = 2t(p-1) + 2j - 1."""
    check_prime(p)
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


def _check_tor_args(p: int, method: str) -> None:
    """Reject a p that is not prime and an unknown Tor method, in every
    degree, before any degree has a chance to answer 0."""
    check_prime(p)
    if method not in ("resolution", "closed_form"):
        raise ValueError(f"unknown Tor method {method!r}")


def tor_summand_group(p: int, i: int, internal_degree: int, method: str = "resolution") -> FgAbelianGroup:
    """Tor piece for one summand at one internal degree, via the resolution
    kernel or the certified closed form.  Below the bottom generator the
    resolution's map is empty, so its kernel is 0."""
    _check_tor_args(p, method)
    if method == "closed_form":
        return tor_closed_form(p, i, internal_degree)
    lu = _lu_window(p, internal_degree)
    summand = summand_presentation(p, i, lu.truncation_degree)
    return tor1_degree(summand, lu, internal_degree)


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
    """Torsion half of the smash answer in total degree n: the Tor term of the
    classifying-space module with itself at internal degree n - 1 - 2a over
    the shifted summand copies; nonzero only in odd degrees.  The closed form
    reads each internal degree as the sum of its summand pieces."""
    _check_tor_args(p, method)
    parts = []
    for a in range(p - 1):
        internal = n - 1 - 2 * a
        if internal < 0:
            continue
        if method == "resolution":
            lu = _lu_window(p, internal)
            parts.append(tor1_degree(lu, lu, internal))
        else:
            parts.extend(tor_summand_group(p, i, internal, method) for i in range(1, p))
    return FgAbelianGroup.trivial().direct_sum(*parts)


def kunneth_smash_group(p: int, n: int, method: str = "resolution") -> FgAbelianGroup:
    """Reduced bu of the smash square of B Z/p in degree n, assembled from the
    short exact sequence: the tensor term carries the even degrees and the
    shifted Tor term the odd ones, so no extension problem arises."""
    if n < 0:
        raise ValueError("degree must be non-negative")
    _check_tor_args(p, method)
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

    check_prime(p)
    parts = [bu_bzp_group(p, n - 2 * i) for i in range(1, p)]
    parts.append(
        FgAbelianGroup.from_cyclic_orders(0, [p] * wedge_count(p, n))
    )
    return FgAbelianGroup.trivial().direct_sum(*parts)


def verify_bu_decomposition(p: int, n_max: int, method: str = "resolution") -> KunnethReport:
    """Degree-wise comparison of the assembled smash groups against the
    direct-sum decomposition; failures are recorded verdicts, not errors."""
    _check_tor_args(p, method)
    records = []
    for n in range(n_max + 1):
        tens = tensor_part(p, n) if n % 2 == 0 else FgAbelianGroup.trivial()
        tor = tor_part(p, n, method) if n % 2 else FgAbelianGroup.trivial()
        assembled = tens.direct_sum(tor)
        cross = decomposition_crosscheck(p, n)
        records.append(KunnethRecord(n, tens, tor, assembled, cross, assembled == cross))
    return KunnethReport(p, n_max, tuple(records))
