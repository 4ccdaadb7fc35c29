"""The two-regime source growth fit; the source sets are events.FeedCounts.sources."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .flows import fit_interior_breakpoint


@dataclass(frozen=True)
class SourceRegimeFit:
    exponent_low: float   # growth exponent below the breakpoint
    exponent_high: float  # growth exponent above the breakpoint
    f_c: float            # breakpoint followee count
    residual: float
    identifiable: bool    # False when both exponents coincide (single power law)


def _two_slopes(logf: np.ndarray, logc: float) -> np.ndarray:
    d = logf - logc
    return np.column_stack(
        [np.ones_like(logf), np.where(d <= 0, d, 0.0), np.where(d > 0, d, 0.0)]
    )


def fit_source_regimes(
    points: Sequence[tuple[float, float]],
    tol: float = 0.05,
) -> SourceRegimeFit:
    """Piecewise log-log linear fit of mean source-set size against followees.

    The two segments are constrained to meet at the breakpoint; the breakpoint
    is chosen from the interior bin positions by least squares. When the two
    exponents agree within tol the breakpoint is flagged unidentifiable.
    """
    pts = [(f, s) for f, s in points if f > 0 and s > 0]
    if len(pts) < 4:
        raise ValueError(f"need at least 4 positive bins, got {len(pts)}")
    f = np.array(sorted(p[0] for p in pts))
    s = np.array([p[1] for p in sorted(pts)])
    logf, logs = np.log(f), np.log(s)

    logc, (_, e_low, e_high), resid = fit_interior_breakpoint(logf, logs, _two_slopes)
    return SourceRegimeFit(
        exponent_low=float(e_low),
        exponent_high=float(e_high),
        f_c=float(np.exp(logc)),
        residual=resid,
        identifiable=abs(e_low - e_high) > tol,
    )
