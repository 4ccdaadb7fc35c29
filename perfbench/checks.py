"""Naive recounts of feedflow's outputs from the generator's arrays.

Each check returns None when the output is right and a one-line reason when
it is not. The recounts use numpy on the generated rows, not feedflow code.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from gen import DELAY_TRUTH, Inputs

DEFAULT_RANGES = ((1.0, 10.0), (10.0, 100.0), (100.0, 200.0), (1000.0, 2500.0))
FIT_TOLERANCE = 0.15  # acceptance criterion 9
SAMPLE_USERS = 20     # users whose records are recounted one by one


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _close(got: str, want: float) -> bool:
    return math.isclose(float(got), want, rel_tol=1e-9, abs_tol=1e-12)


class FeedTruth:
    """Per-user feed facts for the whole-log window, recounted naively."""

    def __init__(self, inp: Inputs, seed: int):
        g = inp.graph
        n = len(g.users)
        self.inp = inp
        self.users = g.users
        order = np.argsort(g.follower, kind="stable")
        bounds = np.searchsorted(g.follower[order], np.arange(n + 1))
        followee = g.followee[order]
        self.followees = [followee[bounds[u]:bounds[u + 1]] for u in range(n)]
        # The CLI's default window is the span of the accepted events.
        self.hours = (int(inp.ts[-1]) - int(inp.ts[0])) / 3600.0
        per_author = np.bincount(inp.author, minlength=n)
        self.received = np.array([int(per_author[f].sum()) for f in self.followees])
        self.lam = self.received / self.hours
        rng = np.random.default_rng([seed, 1])
        self.sample = sorted(rng.choice(n, size=min(SAMPLE_USERS, n), replace=False).tolist())

    def forwards(self, u: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """In-feed forward rows of user u, their original rows, and u's in-flow rows."""
        inp = self.inp
        inflow = np.flatnonzero(np.isin(inp.author, self.followees[u]))
        fw = np.flatnonzero((inp.author == u) & (inp.orig >= 0))
        orig = inp.orig[fw]
        in_feed = np.isin(inp.author[orig], self.followees[u])
        return fw[in_feed], orig[in_feed], inflow

    def check_validate(self, stdout: str) -> str | None:
        t = self.inp.truth
        for want in (f"{t['events']} events\n", f"{t['rejected']} lines rejected:\n",
                     f"{t['users']} users, {t['edges']} follow edges\n"):
            if want not in stdout:
                return f"validate output lacks {want.strip()!r}"
        return None

    def check_queue_counts(self, stdout: str) -> str | None:
        t = self.inp.truth
        want = (f"{t['in_feed_forwards']} queue records, "
                f"{t['out_of_feed_forwards']} out-of-feed forwards")
        return None if want in stdout else f"queues output lacks {want!r}"

    def check_queues_csv(self, path: Path) -> str | None:
        """q and delay of every forward of the sampled users, against a recount."""
        names = {self.users[u]: u for u in self.sample}
        got: dict[str, dict[int, tuple[int, int, int]]] = {name: {} for name in names}
        for row in _rows(path):
            if row["user"] in got:
                got[row["user"]][int(row["retweet_id"])] = (
                    int(row["orig_id"]), int(row["q"]), int(row["delay_s"]))
        ts = self.inp.ts
        for name, u in names.items():
            fw, orig, inflow = self.forwards(u)
            q = np.searchsorted(inflow, fw, "left") - np.searchsorted(inflow, orig, "right")
            want = {int(f) + 1: (int(o) + 1, int(k), int(ts[f] - ts[o]))
                    for f, o, k in zip(fw, orig, q)}
            if got[name] != want:
                return f"queue records of {name} differ from the naive recount"
        return None

    def check_flows_csv(self, path: Path) -> str | None:
        rows = {row["user"]: row for row in _rows(path)}
        if len(rows) != len(self.users):
            return f"flows has {len(rows)} users, expected {len(self.users)}"
        for u in self.sample:
            row = rows[self.users[u]]
            n_rt = self.forwards(u)[0].size
            if not (_close(row["lambda"], self.received[u] / self.hours)
                    and _close(row["lambda_r"], n_rt / self.hours)
                    and int(row["F"]) == self.followees[u].size):
                return f"flows row of {self.users[u]} differs from the naive recount"
        return None

    def check_sources_csv(self, path: Path) -> str | None:
        rows = _rows(path)
        oof = sum(int(r["out_of_feed"]) for r in rows)
        if len(rows) != len(self.users) or oof != self.inp.truth["out_of_feed_forwards"]:
            return f"sources has {len(rows)} users and {oof} out-of-feed forwards"
        return None

    def check_exposure_csv(self, path: Path, n_tokens: int) -> str | None:
        """At k = 0 every user of a group is counted once per token."""
        got = {(float(r["group_lo"]), float(r["group_hi"])): float(r["E"])
               for r in _rows(path) if r["k"] == "0"}
        want = {}
        for lo, hi in DEFAULT_RANGES:
            size = int(((self.lam > lo) & (self.lam <= hi)).sum())
            if size:
                want[(lo, hi)] = float(size * n_tokens)
        return None if got == want else f"exposure E(0) per group {got} != {want}"


def check_fit(path: Path) -> str | None:
    fit = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition(" = ")
        fit[key] = value
    got = [float(fit[k]) for k in ("mu1", "sigma1", "mu2", "sigma2")]
    if any(abs(g - w) > FIT_TOLERANCE for g, w in zip(got, DELAY_TRUTH)):
        return f"delay fit {got} is not within {FIT_TOLERANCE} of {list(DELAY_TRUTH)}"
    return None


def cascade_sizes(path: Path, n_cascades: int) -> tuple[np.ndarray | None, str | None]:
    sizes = np.array([int(r["size"]) for r in _rows(path)])
    if sizes.size != n_cascades or (sizes < 1).any():
        return None, f"{path.name}: {sizes.size} cascades, expected {n_cascades}"
    return sizes, None


def frac_at_least_3(sizes: np.ndarray) -> float:
    return float((sizes >= 3).mean())


def count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)
