"""Counted work as tier-1 contracts.

The work kconn does on a fixed grid is deterministic, so it is asserted
exactly: a change that brings back work these counts no longer show fails
here, whatever a timing says.  Counts come through test-side wrappers, from
cold caches.  A change that moves a count updates it and says why in
CHANGES.md.
"""

import pytest

from kconn import abelian, kmods, kunneth

from .test_kunneth import _clear_caches


def count_tor_sweep(monkeypatch, p, top):
    """Counts for the resolution Tor sweep, kunneth_smash_group(p, n) for odd
    n <= top, from cold caches: the Tor degrees and slices it builds, the
    lattices kunneth hands to cokernel_group and their rows, and the peel
    pivots of every lattice the sweep eliminates."""
    seen = {"lattices": 0, "rows": 0, "pivots": 0}
    cokernel, peel_at = kunneth.cokernel_group, abelian._peel_at

    def counting_cokernel(generators, relations):
        relations = list(relations)
        seen["lattices"] += 1
        seen["rows"] += len(relations)
        return cokernel(generators, relations)

    def counting_peel(*args):
        peeled = peel_at(*args)
        seen["pivots"] += peeled
        return peeled

    monkeypatch.setattr(kunneth, "cokernel_group", counting_cokernel)
    monkeypatch.setattr(abelian, "_peel_at", counting_peel)
    _clear_caches(kunneth, kmods)
    try:
        for n in range(1, top + 1, 2):
            kunneth.kunneth_smash_group(p, n, "resolution")
        seen["tor_degrees"] = kunneth.tor1_degree.cache_info().misses
        seen["slices"] = kmods.realize_slice.cache_info().misses
    finally:
        _clear_caches(kunneth, kmods)
    return seen


@pytest.mark.parametrize("p,rows,pivots", [(2, 60, 151), (3, 119, 210), (5, 234, 325)])
def test_the_tor_sweep_hands_the_peel_only_unmatched_rows(monkeypatch, p, rows, pivots):
    # the benchmark's odd grid: n <= 121 reads the 61 even internal degrees
    # 0..120, and each is one lattice, the d2' of its Tor term; the d1 bound
    # is exact on lu (x) lu, so no tensor term is eliminated.  Only cells of
    # the p - 1 bottom relations give rows: the unreduced d2 has 1,830 rows
    # at each p, 1,921 pivots with the slices'.  The peel pivots on every
    # row, and the slices' lattices give the other 91 pivots
    seen = count_tor_sweep(monkeypatch, p, 121)
    assert seen == {"tor_degrees": 61, "slices": 91, "lattices": 61,
                    "rows": rows, "pivots": pivots}
