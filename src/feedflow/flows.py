"""Population-level rate curves and fits.

Rates are in events/hour; the per-user counts they come from are the columns
of events.FeedIndex. Population curves use logarithmic bins (10 per decade
by default).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

SECONDS_PER_HOUR = 3600.0


class DegenerateFitError(ValueError):
    pass


def window_hours(window: tuple[int, int]) -> float:
    start, end = window
    hours = (end - start) / SECONDS_PER_HOUR
    if hours <= 0:
        raise ValueError(f"window length must be positive, got {window}")
    return hours


class EmpiricalDistribution:
    """Sorted sample with CCDF evaluation, P(X >= x)."""

    def __init__(self, samples: Sequence[float]):
        if len(samples) == 0:
            raise ValueError("empty sample")
        self.values = np.sort(np.asarray(samples, dtype=float))

    @property
    def n(self) -> int:
        return len(self.values)

    def ccdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        below = np.searchsorted(self.values, x, side="left")
        return (self.n - below) / self.n

    def ccdf_points(self) -> tuple[np.ndarray, np.ndarray]:
        v = self.values  # sorted; np.unique would import numpy.ma
        uniq = v[np.concatenate(([True], v[1:] != v[:-1]))]
        return uniq, self.ccdf(uniq)

    def quantile(self, q: float) -> float:
        """np.quantile's linear interpolation, by hand: np.quantile and np.median
        import numpy.ma (about 14 ms) through np.unique and a NaN check."""
        v, x = self.values, (self.n - 1) * q
        if x >= self.n - 1:
            return float(v[-1])
        i = math.floor(x)
        a, b, t = v[i], v[i + 1], x - i
        return float(a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t))

    def median(self) -> float:
        v = self.values  # the mean of the middle two, as np.median takes it
        return float((v[(self.n - 1) // 2] + v[self.n // 2]) / 2)


@dataclass(frozen=True)
class BinStat:
    lo: float
    hi: float
    center: float
    n: int
    mean: float
    median: float
    p10: float
    p90: float


def log_binned_curve(
    x: Sequence[float],
    y: Sequence[float],
    bins_per_decade: int = 10,
) -> list[BinStat]:
    """Bin (x, y) pairs into logarithmic x-bins and summarize y per bin.

    Pairs with x <= 0 are dropped. Bin edges are aligned to powers of ten so
    the binning does not depend on the sample order or range jitter.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = x > 0
    x, y = x[keep], y[keep]
    if len(x) == 0:
        return []
    lo_exp = math.floor(math.log10(x.min()) * bins_per_decade)
    hi_exp = math.ceil(math.log10(x.max()) * bins_per_decade)
    idx = np.floor(np.log10(x) * bins_per_decade).astype(int)
    idx = np.clip(idx, lo_exp, hi_exp)
    out = []
    for b in range(lo_exp, hi_exp + 1):
        mask = idx == b
        n = int(mask.sum())
        if n == 0:
            continue
        lo = 10 ** (b / bins_per_decade)
        hi = 10 ** ((b + 1) / bins_per_decade)
        ys = y[mask]
        dist = EmpiricalDistribution(ys)
        out.append(
            BinStat(
                lo=lo,
                hi=hi,
                center=math.sqrt(lo * hi),
                n=n,
                mean=float(ys.mean()),
                median=dist.median(),
                p10=dist.quantile(0.10),
                p90=dist.quantile(0.90),
            )
        )
    return out


@dataclass(frozen=True)
class PowerLawFit:
    x_min: float
    alpha: float
    n: int


def fit_power_law_mle(samples: Sequence[float], x_min: float) -> PowerLawFit:
    """Continuous maximum-likelihood power-law exponent over samples >= x_min.

    alpha = 1 + n / sum(ln(x_i / x_min)).
    """
    if x_min <= 0:
        raise ValueError("x_min must be positive")
    x = np.asarray(samples, dtype=float)
    x = x[x >= x_min]
    n = len(x)
    if n < 2:
        raise DegenerateFitError(f"need at least 2 samples >= x_min, got {n}")
    s = float(np.log(x / x_min).sum())
    if s <= 0:
        raise DegenerateFitError("all samples equal x_min; exponent diverges")
    return PowerLawFit(x_min=x_min, alpha=1.0 + n / s, n=n)


@dataclass(frozen=True)
class TwoRegimeFit:
    lambda_c: float     # threshold in-flow, tweets/hour
    beta0: float        # plateau retweet probability
    gamma: float        # decay exponent above the threshold
    residual: float     # sum of squared log-residuals
    overload_detected: bool
    mle_exponent: Optional[float] = None  # Clauset-style check on the decay side


def fit_interior_breakpoint(
    x: np.ndarray,
    y: np.ndarray,
    design: Callable[[np.ndarray, float], np.ndarray],
) -> tuple[float, np.ndarray, float]:
    """Least-squares piecewise fit of y on sorted x, breakpoint at an interior x.

    Every interior x value is tried, so both regimes hold data; design(x, c)
    builds the regression matrix for breakpoint c. Returns the breakpoint,
    coefficients and residual sum of squares of the best candidate (the first
    one on ties).
    """
    best = None
    for c in x[1:-1]:
        A = design(x, c)
        coef, _, _, _ = np.linalg.lstsq(A, y, rcond=None)
        resid = float(((A @ coef - y) ** 2).sum())
        if best is None or resid < best[2]:
            best = (c, coef, resid)
    return best


def _plateau_then_decay(loglam: np.ndarray, logc: float) -> np.ndarray:
    d = np.where(loglam > logc, loglam - logc, 0.0)
    return np.column_stack([np.ones_like(loglam), -d])


def fit_two_regime(points: Sequence[tuple[float, float]]) -> TwoRegimeFit:
    """Fit beta(lam) = beta0 for lam <= lambda_c, beta0*(lam/lambda_c)^-gamma above.

    Least squares on log-log values over a grid of candidate thresholds taken
    from the observed bin positions; the curve is continuous at the threshold
    by construction. A non-positive best-fit decay means no overload regime
    was detected: the fit degrades to a flat plateau and the flag is cleared.
    """
    pts = [(l, b) for l, b in points if l > 0 and b > 0]
    if len(pts) < 4:
        raise ValueError(f"need at least 4 positive bins, got {len(pts)}")
    lam = np.array([p[0] for p in pts])
    beta = np.array([p[1] for p in pts])
    order = np.argsort(lam)
    lam, beta = lam[order], beta[order]
    loglam, logbeta = np.log(lam), np.log(beta)

    logc, (b0, gamma), resid = fit_interior_breakpoint(loglam, logbeta, _plateau_then_decay)

    if gamma <= 0:
        # Flat or increasing curve: report the plateau only.
        b0_flat = float(logbeta.mean())
        resid_flat = float(((logbeta - b0_flat) ** 2).sum())
        return TwoRegimeFit(
            lambda_c=float(np.exp(logc)),
            beta0=min(1.0, float(np.exp(b0_flat))),
            gamma=0.0,
            residual=resid_flat,
            overload_detected=False,
        )

    mle_exp = None
    upper = lam[lam > np.exp(logc)]
    if len(upper) >= 2 and len(np.unique(upper)) > 1:
        mle_exp = fit_power_law_mle(upper, float(np.exp(logc))).alpha
    return TwoRegimeFit(
        lambda_c=float(np.exp(logc)),
        beta0=min(1.0, float(np.exp(b0))),
        gamma=float(gamma),
        residual=resid,
        overload_detected=True,
        mle_exponent=mle_exp,
    )
