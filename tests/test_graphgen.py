import itertools

import pytest

from feedflow.graphgen import (
    KroneckerParams,
    UnreachableEdgeCountError,
    kronecker_edges,
    kronecker_generate,
)

PAPER_INITIATOR = ((0.9, 0.5), (0.5, 0.3))


def test_params_validation():
    with pytest.raises(ValueError):
        KroneckerParams(((1.2, 0.5), (0.5, 0.3)), k=3, target_edges=5, seed=0)
    with pytest.raises(ValueError):
        KroneckerParams(((0.0, 0.0), (0.0, 0.0)), k=3, target_edges=5, seed=0)
    with pytest.raises(ValueError):
        KroneckerParams(PAPER_INITIATOR, k=0, target_edges=5, seed=0)
    with pytest.raises(ValueError):
        KroneckerParams(PAPER_INITIATOR, k=3, target_edges=-1, seed=0)


def brute_force_max_edges(initiator, k):
    """Count (u, v), u != v, whose per-level quadrant entries are all positive."""
    n = 2**k
    count = 0
    for u, v in itertools.product(range(n), repeat=2):
        if u == v:
            continue
        ok = True
        for level in range(k):
            rb = (u >> level) & 1
            cb = (v >> level) & 1
            if initiator[rb][cb] <= 0:
                ok = False
                break
        if ok:
            count += 1
    return count


@pytest.mark.parametrize("initiator", [
    PAPER_INITIATOR,
    ((0.9, 0.0), (0.5, 0.3)),
    ((0.0, 0.7), (0.6, 0.0)),
])
def test_max_edges_matches_enumeration(initiator):
    for k in (1, 2, 3, 4):
        params = KroneckerParams(initiator, k=k, target_edges=0, seed=0)
        assert params.max_edges() == brute_force_max_edges(initiator, k)


def test_exact_edge_count_no_self_loops():
    params = KroneckerParams(PAPER_INITIATOR, k=8, target_edges=1500, seed=42)
    edges = kronecker_edges(params)
    assert len(edges) == 1500
    assert len(set(edges)) == 1500
    assert all(u != v for u, v in edges)
    assert all(0 <= u < 256 and 0 <= v < 256 for u, v in edges)


def test_unreachable_edge_count():
    params = KroneckerParams(PAPER_INITIATOR, k=2, target_edges=13, seed=0)
    with pytest.raises(UnreachableEdgeCountError):
        kronecker_edges(params)


def test_saturating_edge_count_reachable():
    # All cells positive, k=2: every one of the 4^2 - 2^2 = 12 non-loop edges.
    params = KroneckerParams(((0.9, 0.5), (0.5, 0.3)), k=2, target_edges=12, seed=3)
    edges = kronecker_edges(params)
    assert len(edges) == 12


def test_determinism_and_seed_sensitivity():
    p1 = KroneckerParams(PAPER_INITIATOR, k=7, target_edges=400, seed=1)
    p2 = KroneckerParams(PAPER_INITIATOR, k=7, target_edges=400, seed=2)
    assert kronecker_edges(p1) == kronecker_edges(p1)
    assert kronecker_edges(p1) != kronecker_edges(p2)


def test_generate_social_graph():
    params = KroneckerParams(PAPER_INITIATOR, k=6, target_edges=200, seed=5)
    g = kronecker_generate(params)
    assert len(g.nodes) == 64          # isolated nodes included
    assert g.n_edges() == 200
    assert all(isinstance(u, str) for u in g.nodes)


def test_core_quadrant_is_densest():
    # With the paper initiator, low-bit (core) nodes attract most edges.
    params = KroneckerParams(PAPER_INITIATOR, k=9, target_edges=4000, seed=11)
    edges = kronecker_edges(params)
    half = 2**8
    core = sum(1 for u, v in edges if u < half and v < half)
    periphery = sum(1 for u, v in edges if u >= half and v >= half)
    assert core > 2 * periphery
