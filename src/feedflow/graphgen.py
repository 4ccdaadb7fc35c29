"""Stochastic Kronecker graph generation by ball dropping.

Each edge is placed by descending k levels of the 2x2 initiator, picking a
quadrant per level with probability proportional to the initiator entry. The
row bits form the source node and the column bits the target. Self-loops and
duplicates are re-dropped until exactly the requested number of distinct
edges exists, so the output edge count is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .events import SocialGraph

# Rows of the initiator cells drawn at once. The draws and so the edges do not
# depend on it; it bounds the transient arrays of a batch.
ROW_CHUNK = 1 << 15
MAX_K = 31  # an edge u -> v is the int64 key u << k | v


class UnreachableEdgeCountError(ValueError):
    pass


@dataclass(frozen=True)
class KroneckerParams:
    initiator: tuple[tuple[float, float], tuple[float, float]]
    k: int
    target_edges: int
    seed: int

    def __post_init__(self):
        flat = [p for row in self.initiator for p in row]
        if len(self.initiator) != 2 or any(len(r) != 2 for r in self.initiator):
            raise ValueError("initiator must be a 2x2 matrix")
        if any(not (0.0 <= p <= 1.0) for p in flat):
            raise ValueError("initiator entries must lie in [0, 1]")
        if sum(flat) <= 0:
            raise ValueError("initiator must have at least one positive entry")
        if not 1 <= self.k <= MAX_K:
            raise ValueError(f"power k must be between 1 and {MAX_K}, got {self.k}")
        if self.target_edges < 0:
            raise ValueError("target_edges must be non-negative")

    @property
    def n_nodes(self) -> int:
        return 2**self.k

    def max_edges(self) -> int:
        """Distinct non-self-loop edges with positive drop probability."""
        positive = sum(1 for row in self.initiator for p in row if p > 0)
        diag_positive = sum(1 for i in (0, 1) if self.initiator[i][i] > 0)
        return positive**self.k - diag_positive**self.k


def _edge_keys(cells: np.ndarray) -> np.ndarray:
    """Each row's edge u -> v as the key u << k | v. Level j's cell gives bit
    k - 1 - j of u (the cell's row) and of v (its column)."""
    k = cells.shape[1]
    keys = np.zeros(len(cells), np.int64)
    for j, cell in enumerate(cells.T):
        keys |= (cell >> 1) << (2 * k - 1 - j) | (cell & 1) << (k - 1 - j)
    return keys


def kronecker_edges(params: KroneckerParams) -> tuple[np.ndarray, np.ndarray]:
    """Exactly target_edges distinct directed edges, no self-loops, as
    (follower, followee) int64 arrays sorted by follower, then followee.

    Batches of max(1024, 2 * need) rows are drawn until enough edges exist;
    a batch keeps, in draw order, the first distinct non-loop edges not
    already held.
    """
    if params.target_edges > params.max_edges():
        raise UnreachableEdgeCountError(
            f"target_edges={params.target_edges} unreachable: at most "
            f"{params.max_edges()} distinct non-loop edges have positive probability"
        )
    rng = np.random.default_rng(params.seed)
    flat = np.array([p for row in params.initiator for p in row], dtype=float)
    probs = flat / flat.sum()
    k, mask = params.k, (1 << params.k) - 1
    held = np.array([np.iinfo(np.int64).max])  # the keys so far, sorted, then a sentinel
    need = params.target_edges
    while need:
        left = max(1024, 2 * need)
        while need and left:
            rows = min(ROW_CHUNK, left)
            left -= rows
            keys = _edge_keys(rng.choice(4, size=(rows, k), p=probs))
            keys = keys[(keys >> k) != (keys & mask)]
            _, first = np.unique(keys, return_index=True)
            keys = keys[np.sort(first)]  # distinct, in draw order
            keys = np.sort(keys[held[np.searchsorted(held, keys)] != keys][:need])
            held = np.insert(held, np.searchsorted(held, keys), keys)
            need -= len(keys)
    return held[:-1] >> k, held[:-1] & mask


def kronecker_generate(params: KroneckerParams) -> SocialGraph:
    """Directed follow graph over the nodes '0' .. str(2^k - 1): a dropped
    edge (u, v) means u follows v."""
    follower, followee = kronecker_edges(params)
    names = sorted(map(str, range(params.n_nodes)))
    rank = np.empty(params.n_nodes, np.int64)
    rank[np.array(names, np.int64)] = np.arange(params.n_nodes)
    return SocialGraph(names, rank[follower], rank[followee])
