import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from feedflow import graphgen
from feedflow.graphgen import (
    KroneckerParams,
    UnreachableEdgeCountError,
    kronecker_edges,
    kronecker_generate,
)
from helpers import graph_of, naive_kronecker_edges

PAPER_INITIATOR = ((0.9, 0.5), (0.5, 0.3))


def edge_list(params):
    """kronecker_edges' (follower, followee) arrays as a list of pairs."""
    follower, followee = kronecker_edges(params)
    assert follower.dtype == followee.dtype == np.int64
    return list(zip(follower.tolist(), followee.tolist()))


def test_params_validation():
    with pytest.raises(ValueError):
        KroneckerParams(((1.2, 0.5), (0.5, 0.3)), k=3, target_edges=5, seed=0)
    with pytest.raises(ValueError):
        KroneckerParams(((0.0, 0.0), (0.0, 0.0)), k=3, target_edges=5, seed=0)
    with pytest.raises(ValueError):
        KroneckerParams(PAPER_INITIATOR, k=0, target_edges=5, seed=0)
    with pytest.raises(ValueError):
        KroneckerParams(PAPER_INITIATOR, k=3, target_edges=-1, seed=0)


@pytest.mark.parametrize("k", [32, 40])
def test_params_reject_a_power_past_int64_keys(k):
    with pytest.raises(ValueError, match=f"power k .*got {k}"):
        KroneckerParams(PAPER_INITIATOR, k=k, target_edges=5, seed=0)


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
    edges = edge_list(params)
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
    edges = edge_list(params)
    assert len(edges) == 12


def test_determinism_and_seed_sensitivity():
    p1 = KroneckerParams(PAPER_INITIATOR, k=7, target_edges=400, seed=1)
    p2 = KroneckerParams(PAPER_INITIATOR, k=7, target_edges=400, seed=2)
    assert edge_list(p1) == edge_list(p1)
    assert edge_list(p1) != edge_list(p2)


def test_generate_social_graph():
    params = KroneckerParams(PAPER_INITIATOR, k=6, target_edges=200, seed=5)
    g = kronecker_generate(params)
    assert len(g.nodes) == 64          # isolated nodes included
    assert g.n_edges() == 200
    assert all(isinstance(u, str) for u in g.nodes)
    # The graph of the edges' decimal names, built name by name.
    by_name = graph_of([(str(u), str(v)) for u, v in edge_list(params)],
                       nodes=map(str, range(64)))
    assert g.nodes == by_name.nodes
    for a in ("followee_indptr", "followee_indices", "follower_indptr", "follower_indices"):
        assert getattr(g, a).tolist() == getattr(by_name, a).tolist(), a


def test_core_quadrant_is_densest():
    # With the paper initiator, low-bit (core) nodes attract most edges.
    params = KroneckerParams(PAPER_INITIATOR, k=9, target_edges=4000, seed=11)
    edges = edge_list(params)
    half = 2**8
    core = sum(1 for u, v in edges if u < half and v < half)
    periphery = sum(1 for u, v in edges if u >= half and v >= half)
    assert core > 2 * periphery


# Entries of at least 0.4 against at most 0.9 keep every positive cell likely
# enough that up to 400 edges, or every edge at k <= 4, are drawn quickly.
INITIATORS = st.tuples(*[st.sampled_from([0.0, 0.4, 0.6, 0.9])] * 4).filter(any).map(
    lambda a: ((a[0], a[1]), (a[2], a[3])))


@st.composite
def kronecker_params(draw):
    initiator, k = draw(INITIATORS), draw(st.integers(1, 9))
    reachable = KroneckerParams(initiator, k, 0, 0).max_edges()
    return KroneckerParams(initiator, k, draw(st.integers(0, min(reachable, 400))),
                           draw(st.integers(0, 2**32)))


@settings(max_examples=60, deadline=None)
@given(kronecker_params())
@example(KroneckerParams(((0.9, 0.0), (0.5, 0.3)), 4, 65, 1))  # every edge
@example(KroneckerParams(((0.0, 0.4), (0.6, 0.0)), 1, 2, 0))
@example(KroneckerParams(PAPER_INITIATOR, 1, 0, 0))
def test_edges_match_the_set_oracle(params):
    assert edge_list(params) == naive_kronecker_edges(params)


@pytest.mark.parametrize("rows", [1, 7, 4096])
def test_edges_do_not_depend_on_row_chunk(monkeypatch, rows):
    # Three batches of 5,000, 1,024 and 1,024 rows.
    params = KroneckerParams(PAPER_INITIATOR, k=6, target_edges=2500, seed=4)
    whole = edge_list(params)
    assert whole == naive_kronecker_edges(params)
    monkeypatch.setattr(graphgen, "ROW_CHUNK", rows)
    assert edge_list(params) == whole
