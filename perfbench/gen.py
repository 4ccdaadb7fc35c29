"""Seeded input generator for the benchmark (numpy only).

Produces a follow graph and an event log in feedflow's TSV formats, together
with the ground truth the output checks compare against. It does not use
`feedflow synth`, so the bytes stay the same when the program's own generator
changes its random stream. The same seed and spec always give the same bytes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

PAPER_INITIATOR = (0.9, 0.5, 0.5, 0.3)

# Retweet-probability curve of the paper: beta0 up to lambda_c, then a power law.
LAMBDA_C, BETA0, GAMMA = 30.0, 0.05, 0.65

# Well-identified delay truth (mu1, sigma1, mu2, sigma2) of acceptance criterion 9.
DELAY_TRUTH = (4.0, 0.3, 3.0, 1.2)

POST_RATE = (1.0, 0.25)  # per-user posting rate Normal(mu, sigma), tweets/hour
TOKEN_SEEDS = 8        # spontaneous adopters per marked token
TOKEN_HAZARD = 0.08    # per-exposure adoption probability
MALFORMED_SHARE = 0.001  # share of malformed lines
OUT_OF_FEED = 0.01     # out-of-feed forwards per in-feed forward

# Malformed lines, one of each kind in turn; {i} keeps each line distinct.
_MALFORMED_LINES = (
    "x{i}\tu{i}\tT\t{id}",              # bad timestamp
    "{ts}\tu{i}\tQ\t{id}",              # bad kind
    "{ts}\tu{i}",                       # too few fields
    "{ts}\tu{i}\tT\t{id}\t",            # empty marks field
    "{ts}\tu{i}\tR\t{id}\t{bad}\tu0",   # forward of an event that does not exist
)


@dataclass(frozen=True)
class LogSpec:
    k: int                      # Kronecker power: 2**k potential users
    edges: int                  # distinct follow edges
    hours: float                # log horizon
    beta0: float = BETA0        # forwarding probability below lambda_c
    tokens: tuple[str, ...] = ()  # marked tokens, each spread as a cascade


@dataclass(frozen=True)
class Graph:
    users: list[str]
    follower: np.ndarray        # edge arrays over user indices: follower follows followee
    followee: np.ndarray

    def tsv(self) -> bytes:
        names = self.users
        return "".join(f"{names[a]}\t{names[b]}\n" for a, b in
                       zip(self.follower.tolist(), self.followee.tolist())).encode()


@dataclass
class Inputs:
    """Generated files plus the truth and arrays the checks recount from.

    Rows are the valid events in (ts, event_id) order; a row's event id is
    row + 1.
    """

    graph: Graph
    graph_tsv: bytes
    log_tsv: bytes
    ts: np.ndarray
    author: np.ndarray
    orig: np.ndarray            # row of the forwarded event, -1 for originals
    truth: dict


def kronecker_edges(rng: np.random.Generator, k: int, n_edges: int,
                    initiator=PAPER_INITIATOR) -> tuple[np.ndarray, np.ndarray]:
    """Ball dropping: exactly n_edges distinct non-loop edges, sorted."""
    n = 1 << k
    p = np.asarray(initiator, dtype=float)
    p = p / p.sum()
    weights = 1 << np.arange(k - 1, -1, -1)
    keys = np.empty(0, dtype=np.int64)
    while keys.size < n_edges:
        cells = rng.choice(4, size=(2 * n_edges, k), p=p)
        u = (cells // 2) @ weights
        v = (cells % 2) @ weights
        cand = np.concatenate([keys, (u * n + v)[u != v]])
        _, first = np.unique(cand, return_index=True)
        keys = cand[np.sort(first)]
    keys = np.sort(keys[:n_edges])
    return keys // n, keys % n


def beta_of_inflow(lam: np.ndarray, beta0: float = BETA0) -> np.ndarray:
    over = np.maximum(lam, LAMBDA_C) / LAMBDA_C
    return np.minimum(1.0, beta0 * over ** (-GAMMA))


def whole_second_delays(rng: np.random.Generator, size: int) -> np.ndarray:
    mu1, s1, mu2, s2 = DELAY_TRUTH
    d = rng.lognormal(mu1, s1, size) + rng.lognormal(mu2, s2, size)
    return np.maximum(1, np.rint(d)).astype(np.int64)


def _truncated_normal(rng, mu, sigma, size):
    rates = rng.normal(mu, sigma, size)
    while (bad := rates < 0).any():
        rates[bad] = rng.normal(mu, sigma, int(bad.sum()))
    return rates


def _spread_token(rng, followers_of, n_users, horizon_s):
    """Independent-cascade adoption of one token: adopter -> adoption ts."""
    seeds = rng.choice(n_users, size=min(TOKEN_SEEDS, n_users), replace=False)
    heap = [(int(t), int(s)) for t, s in
            zip(rng.integers(0, min(3600, horizon_s) + 1, seeds.size), seeds)]
    heapq.heapify(heap)
    adopted: dict[int, int] = {}
    while heap:
        t, u = heapq.heappop(heap)
        if u in adopted or t > horizon_s:
            continue
        adopted[u] = t
        fol = followers_of[u]
        hits = fol[rng.random(fol.size) < TOKEN_HAZARD]
        for w, lag in zip(hits.tolist(), rng.integers(1, 601, hits.size).tolist()):
            if w not in adopted:
                heapq.heappush(heap, (t + lag, w))
    return adopted


def make_graph(rng: np.random.Generator, k: int, n_edges: int) -> Graph:
    """Kronecker follow graph; users are the nodes that have an edge, named u00000..."""
    src, dst = kronecker_edges(rng, k, n_edges)
    nodes, inv = np.unique(np.concatenate([src, dst]), return_inverse=True)
    return Graph([f"u{i:05d}" for i in range(nodes.size)], inv[: src.size], inv[src.size:])


def generate(spec: LogSpec, seed: int) -> Inputs:
    rng = np.random.default_rng(seed)
    graph = make_graph(rng, spec.k, spec.edges)
    users, follower, followee = graph.users, graph.follower, graph.followee
    n_users = len(users)
    horizon_s = int(round(spec.hours * 3600))

    # Followers of each user as CSR over the edge list sorted by followee.
    order = np.lexsort((follower, followee))
    fol_flat = follower[order]
    fol_ptr = np.concatenate([[0], np.cumsum(np.bincount(followee, minlength=n_users))])
    followers_of = [fol_flat[fol_ptr[i]:fol_ptr[i + 1]] for i in range(n_users)]

    # Originals: Poisson posting at a Normal(mu, sigma) rate per user.
    rates = _truncated_normal(rng, *POST_RATE, n_users)
    counts = rng.poisson(rates * spec.hours)
    o_author = np.repeat(np.arange(n_users), counts)
    o_ts = rng.integers(0, horizon_s + 1, o_author.size)
    o_mark = np.full(o_author.size, -1)
    for tok_idx in range(len(spec.tokens)):
        adopted = _spread_token(rng, followers_of, n_users, horizon_s)
        o_author = np.concatenate([o_author, np.fromiter(adopted.keys(), int, len(adopted))])
        o_ts = np.concatenate([o_ts, np.fromiter(adopted.values(), int, len(adopted))])
        o_mark = np.concatenate([o_mark, np.full(len(adopted), tok_idx)])
    n_orig = o_author.size

    # In-feed forwards: every (original, follower of its author) pair is
    # forwarded with the beta-curve probability of the follower's in-flow.
    lam_in = np.bincount(follower, weights=rates[followee], minlength=n_users)
    deg = np.diff(fol_ptr)
    pair_orig = np.repeat(np.arange(n_orig), deg[o_author])
    starts = np.repeat(fol_ptr[o_author] - np.cumsum(deg[o_author]) + deg[o_author],
                       deg[o_author])
    pair_user = fol_flat[starts + np.arange(pair_orig.size)]
    hit = rng.random(pair_orig.size) < beta_of_inflow(lam_in, spec.beta0)[pair_user]
    f_orig, f_author = pair_orig[hit], pair_user[hit]
    f_ts = o_ts[f_orig] + whole_second_delays(rng, f_orig.size)
    keep = f_ts <= horizon_s
    f_orig, f_author, f_ts = f_orig[keep], f_author[keep], f_ts[keep]

    # Out-of-feed forwards: originals by users the forwarder does not follow.
    edge_keys = np.sort(follower.astype(np.int64) * n_users + followee)
    n_oof = int(round(OUT_OF_FEED * f_orig.size))
    cand_user = rng.integers(0, n_users, 4 * n_oof + 16)
    cand_orig = rng.integers(0, n_orig, cand_user.size)
    cand_ts = o_ts[cand_orig] + whole_second_delays(rng, cand_user.size)
    key = cand_user.astype(np.int64) * n_users + o_author[cand_orig]
    pos = np.minimum(np.searchsorted(edge_keys, key), edge_keys.size - 1)
    ok = (edge_keys[pos] != key) & (cand_user != o_author[cand_orig]) & (cand_ts <= horizon_s)
    sel = np.flatnonzero(ok)[:n_oof]
    n_oof = sel.size

    # Global (ts, event_id) order; ids are ranks, shifted so none is 0.
    ts = np.concatenate([o_ts, f_ts, cand_ts[sel]])
    author = np.concatenate([o_author, f_author, cand_user[sel]])
    orig_of = np.concatenate([np.full(n_orig, -1), f_orig, cand_orig[sel]])
    mark = np.concatenate([o_mark, np.full(f_orig.size + n_oof, -1)])
    rank = np.lexsort((np.arange(ts.size), ts))
    row_of = np.empty_like(rank)
    row_of[rank] = np.arange(rank.size)
    ts, author, mark = ts[rank], author[rank], mark[rank]
    orig = np.where(orig_of[rank] >= 0, row_of[np.maximum(orig_of[rank], 0)], -1)

    lines = []
    for row, (t, a, o, m) in enumerate(zip(ts.tolist(), author.tolist(),
                                          orig.tolist(), mark.tolist())):
        if o < 0:
            line = f"{t}\t{users[a]}\tT\t{row + 1}"
        else:
            line = f"{t}\t{users[a]}\tR\t{row + 1}\t{o + 1}\t{users[author[o]]}"
        if m >= 0:
            line += "\t" + spec.tokens[m]
        lines.append(line)

    n_bad = int(round(MALFORMED_SHARE * len(lines)))
    bad_at = np.sort(rng.integers(0, len(lines) + 1, n_bad))
    next_id = ts.size + 1
    for j, at in enumerate(bad_at.tolist()[::-1]):
        lines.insert(at, _MALFORMED_LINES[j % len(_MALFORMED_LINES)].format(
            i=j, ts=horizon_s // 2, id=next_id + 2 * j, bad=next_id + 2 * j + 1))

    truth = {
        "users": n_users,
        "edges": int(follower.size),
        "events": int(ts.size),
        "rejected": n_bad,
        "originals": n_orig,
        "in_feed_forwards": int(f_orig.size),
        "out_of_feed_forwards": n_oof,
        "distinct_delays": int(np.unique(f_ts - o_ts[f_orig]).size),
        "delay_truth": list(DELAY_TRUTH),
    }
    return Inputs(
        graph=graph,
        graph_tsv=graph.tsv(),
        log_tsv=("\n".join(lines) + "\n").encode(),
        ts=ts, author=author, orig=orig, truth=truth,
    )
