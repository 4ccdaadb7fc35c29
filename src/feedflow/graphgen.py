"""Stochastic Kronecker graph generation by ball dropping.

Each edge is placed by descending k levels of the 2x2 initiator, picking a
quadrant per level with probability proportional to the initiator entry. The
row bits form the source node and the column bits the target. Self-loops and
duplicates are re-dropped until exactly the requested number of distinct
edges exists, so the output edge count is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .events import SocialGraph


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
        if self.k < 1:
            raise ValueError("power k must be >= 1")
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


def kronecker_edges(params: KroneckerParams) -> list[tuple[int, int]]:
    """Sample exactly target_edges distinct directed edges, no self-loops."""
    if params.target_edges > params.max_edges():
        raise UnreachableEdgeCountError(
            f"target_edges={params.target_edges} unreachable: at most "
            f"{params.max_edges()} distinct non-loop edges have positive probability"
        )
    rng = np.random.default_rng(params.seed)
    flat = np.array([p for row in params.initiator for p in row], dtype=float)
    probs = flat / flat.sum()
    edges: set[tuple[int, int]] = set()
    need = params.target_edges
    while len(edges) < params.target_edges:
        batch = max(1024, 2 * need)
        cells = rng.choice(4, size=(batch, params.k), p=probs)
        rows = cells // 2
        cols = cells % 2
        weights = 1 << np.arange(params.k - 1, -1, -1)
        us = (rows * weights).sum(axis=1)
        vs = (cols * weights).sum(axis=1)
        for u, v in zip(us.tolist(), vs.tolist()):
            if u != v:
                edges.add((u, v))
                if len(edges) == params.target_edges:
                    break
        need = params.target_edges - len(edges)
    return sorted(edges)


def kronecker_generate(params: KroneckerParams) -> SocialGraph:
    """Directed follow graph: a dropped edge (u, v) means u follows v."""
    edges = kronecker_edges(params)
    nodes = [str(i) for i in range(params.n_nodes)]
    return SocialGraph(((str(u), str(v)) for u, v in edges), nodes=nodes)
