"""Feed-queue reconstruction: positions at forward time, delays, and bounds.

The feed is modeled as a LIFO queue ordered by the global (ts, event_id)
order. The position of a post at the moment it was forwarded counts the
in-flow items that arrived strictly in between; forwards whose source is not
in the user's feed are excluded and counted.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .events import FeedIndex

if TYPE_CHECKING:  # delay_histogram imports it: no command calls it
    from .flows import EmpiricalDistribution


class FitConvergenceError(ValueError):
    """The optimizer found no finite likelihood."""


class QueuePositions(NamedTuple):
    """One user's queue records as int64 columns, one row per in-feed forward
    in log order."""

    retweet_id: np.ndarray
    orig_id: np.ndarray
    q: np.ndarray        # in-flow arrivals strictly between the original and the forward
    delay_s: np.ndarray  # ts(forward) - ts(original)


def queue_positions(
    user: str,
    feeds: FeedIndex,
    source: str = "immediate",
) -> tuple[QueuePositions, int]:
    """Queue-position columns for one user's forwards inside the window, and
    the number of those forwards whose source is not in her feed.

    source="immediate" measures against the event the user actually forwarded
    (her feed item); source="root" follows forward chains back to the original
    post and measures against that, or against the feed item where a chain
    breaks.
    """
    if source not in ("immediate", "root"):
        raise ValueError(f"source must be 'immediate' or 'root', got {source!r}")
    log = feeds.log
    forwards = feeds.forwards(user)
    targets = log.orig_row[forwards]
    if source == "root":
        # orig_row points only to earlier rows, so every chain ends.
        root = targets
        hop = (root >= 0) & log.forward[root]
        while hop.any():
            root = np.where(hop, log.orig_row[root], root)
            hop = (root >= 0) & log.forward[root]
        targets = np.where(root >= 0, root, targets)
    feed, at = feeds.locate(user, targets)
    kept = at >= 0
    forwards, targets = forwards[kept], targets[kept]
    # Feed items strictly between the original (at index `at`) and the forward.
    q = np.searchsorted(feed, forwards) - at[kept] - 1
    columns = QueuePositions(log.ids[forwards], log.ids[targets], q.astype(np.int64),
                             log.ts[forwards] - log.ts[targets])
    return columns, len(kept) - len(forwards)


@dataclass(frozen=True)
class DelaySummary:
    n: int
    median_s: float
    bottom90_mean_s: float  # mean of delays at or below the 90th percentile


def delay_histogram(delays: Sequence[float]) -> tuple[EmpiricalDistribution, DelaySummary]:
    """Pooled delay distribution for a user group plus the headline statistics."""
    from .flows import EmpiricalDistribution
    if len(delays) == 0:
        raise ValueError("empty delay group")
    dist = EmpiricalDistribution(delays)
    p90 = dist.quantile(0.90)
    low = dist.values[dist.values <= p90]
    return dist, DelaySummary(
        n=dist.n,
        median_s=dist.median(),
        bottom90_mean_s=float(low.mean()),
    )


@dataclass(frozen=True)
class LognormalConvolutionFit:
    """Sum of an observation-time and a reaction-time lognormal.

    loglik is the whole-second interval log-likelihood. The standard errors
    come from the observed information; they are nan when that matrix is not
    positive definite.
    """

    mu1: float
    sigma1: float
    mu2: float
    sigma2: float
    loglik: float
    n: int
    n_rejected: int        # non-positive delays dropped before fitting
    n_unique: int          # distinct whole-second delays
    nfev: int              # likelihood evaluations over all starts
    converged: bool        # the best start's optimizer reported success
    se_mu1: float
    se_sigma1: float
    se_mu2: float
    se_sigma2: float
    identifiable: bool     # information positive definite and every se <= 0.15


# Whole-second delay model. A delay of d seconds is the event
# d - 1/2 < X1 + X2 <= d + 1/2 (lower edge clamped at 0), so the likelihood is
# a product of bin masses, each a difference of the sum's CDF (or, above the
# bulk, of its survival function) at two bin edges.
_GL_POINTS = 32         # Gauss-Legendre nodes per quadrature panel
_TAIL_Z = 9.0           # standard scores beyond this carry under 1e-18 of the mass
# Edges per quadrature block. Its (block, 65) float temporaries stay under
# glibc's 128 KiB mmap threshold: at 256 each one was mapped and faulted in
# anew, about 700 page faults per likelihood evaluation.
_EDGE_BLOCK = 128
_MASS_FLOOR = 1e-300
_LOG_SIGMA_BOUNDS = (math.log(0.01), math.log(10.0))
_IDENTIFIABLE_SE = 0.15
_MIN_SAMPLES = 100
_MAX_ITER = 4000        # optimizer iterations per start
_PGTOL = 1e-5           # L-BFGS-B's default projected-gradient tolerance
_FTOL = 2.2e-9          # L-BFGS-B's default relative decrease, factr * machine epsilon
_STALL = 3              # successive iterations under _FTOL that end a run
_MAX_STEP = 2.0         # largest move of one parameter per step: a factor e^2 in a scale
_EIG_FLOOR = 1e-8       # smallest Hessian eigenvalue a Newton step uses, relative to the largest
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to [0, 1].

    Golub-Welsch: the nodes are the eigenvalues of the Legendre Jacobi
    matrix and each weight is twice the squared first component of its
    eigenvector. numpy's leggauss would import numpy.polynomial, about 4 ms.
    Computed on first use, not at import: the eigenvalue solve starts the
    linear-algebra library, about 1 MiB of RSS that commands without a fit
    would otherwise pay.
    """
    k = np.arange(1.0, _GL_POINTS)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    x, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return (x + 1.0) / 2.0, v[0] ** 2


# Cephes' rational approximations of erf and erfc (Moshier, 1989), highest
# power first. erf(x) = x T(x^2) / U(x^2) for |x| < 1; for x >= 1,
# erfc(x) = exp(-x^2) P(x) / Q(x) below 8 and exp(-x^2) R(x) / S(x) above.
# U, Q and S have an implicit leading coefficient 1.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)


def _horner(x, coefs, monic=False):
    y = x + coefs[0] if monic else np.full_like(x, coefs[0])
    for c in coefs[1:]:
        y *= x
        y += c
    return y


def _ndtr(a):
    """Standard normal CDF and density at a.

    The CDF is Cephes' ndtr, from the mass below -|a|: erfc(|a|/sqrt 2)/2,
    taken as 1/2 - erf(|a|/sqrt 2)/2 for |a| < sqrt 2. The P/Q rational, which
    most arguments need, runs over the whole array on arguments clipped into
    its range; T/U and R/S run on their own elements. The density is the
    exp(-a^2/2) that erfc's tail already takes, scaled.
    """
    a = np.asarray(a, dtype=float)
    z = np.abs(a)
    z *= math.sqrt(0.5)
    zc = np.clip(z, 1.0, 8.0)
    ratio = _horner(zc, _ERFC_P)
    ratio /= _horner(zc, _ERFC_Q, monic=True)
    far = z >= 8.0
    if far.any():
        zf = np.minimum(z[far], 40.0)  # exp(-1600) is 0: keeps inf out of the rational
        ratio[far] = _horner(zf, _ERFC_R) / _horner(zf, _ERFC_S, monic=True)
    # Fewer temporaries, not style: each is as large as the argument.
    tail = np.multiply(z, z)
    np.negative(tail, out=tail)
    np.exp(tail, out=tail)
    density = tail * _INV_SQRT_2PI
    tail *= ratio
    tail *= 0.5
    near = z < 1.0
    if near.any():
        zn = z[near]
        zz = zn * zn
        tail[near] = 0.5 - 0.5 * (zn * _horner(zz, _ERF_T) / _horner(zz, _ERF_U, monic=True))
    return np.subtract(1.0, tail, out=tail, where=a > 0.0), density


@dataclass(frozen=True)
class MinimizeResult:
    x: np.ndarray
    fun: float
    nfev: int       # objective evaluations
    success: bool   # a stopping rule was met; False after _MAX_ITER or a failed line search


def minimize(fun, x0, args, bounds) -> MinimizeResult:
    """Minimize fun(x, *args) -> (value, gradient, Hessian) on a box by
    projected Newton steps.

    bounds holds one (lo, hi) pair per variable, None for no bound. Each
    iteration freezes the variables at a bound whose gradient points out of
    the box and steps along the Newton direction of the others. That
    direction solves with their Hessian after each eigenvalue is replaced by
    its absolute value, floored at _EIG_FLOOR times the largest, so it
    descends where the Hessian is indefinite or singular. No variable moves
    more than _MAX_STEP, and the projected step is halved until it decreases
    fun enough (Armijo). The stopping rules are L-BFGS-B's defaults: a
    projected gradient of at most _PGTOL, or a relative decrease of at most
    _FTOL, here on _STALL successive iterations, since on a flat ridge one
    short step is no sign of a minimum. An evaluation of fun counts once.
    """
    n = len(x0)
    lo = np.array([-np.inf if b is None else b for b, _ in bounds])
    hi = np.array([np.inf if b is None else b for _, b in bounds])
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    f, g, h = fun(x, *args)
    nfev, stalled = 1, 0
    for _ in range(_MAX_ITER):
        if np.max(np.abs(np.clip(x - g, lo, hi) - x)) <= _PGTOL:
            return MinimizeResult(x, f, nfev, True)
        free = ~(((x <= lo) & (g > 0)) | ((x >= hi) & (g < 0)))
        eig, vec = np.linalg.eigh(h[np.ix_(free, free)])
        eig = np.abs(eig)
        eig = np.maximum(eig, _EIG_FLOOR * eig.max())
        d = np.zeros(n)
        d[free] = -vec @ ((vec.T @ g[free]) / eig)
        step = min(1.0, _MAX_STEP / np.max(np.abs(d)))
        while True:
            x_new = np.clip(x + step * d, lo, hi)
            f_new, g_new, h_new = fun(x_new, *args)
            nfev += 1
            if f_new <= f + 1e-4 * (g @ (x_new - x)):
                break
            step /= 2.0
            if step < 1e-20:
                return MinimizeResult(x, f, nfev, False)
        stalled = stalled + 1 if f - f_new <= _FTOL * max(abs(f), abs(f_new), 1.0) else 0
        x, f, g, h = x_new, f_new, g_new, h_new
        if stalled == _STALL:
            return MinimizeResult(x, f, nfev, True)
    return MinimizeResult(x, f, nfev, False)


def _moments(a, x, out):
    """Row sums of a * x**i into out[i], i = 0, 1, ...; a is overwritten.

    A matrix-vector product sums short rows about twice as fast as sum(axis=1).
    """
    one = np.ones(a.shape[1])
    np.matmul(a, one, out=out[0])
    for row in out[1:]:
        a *= x
        np.matmul(a, one, out=row)


def _phi(x):
    return _INV_SQRT_2PI * np.exp(-0.5 * x * x)


_N_SUMS = 18  # rows of _edge_sums


def _edge_sums(z, sign, mu_n, s_n, mu_w, s_w) -> np.ndarray:
    """Quadrature sums behind the CDF (sign +1) or survival function (sign -1)
    of Y + X at edges z > 0 and their derivatives; _derivatives combines them.

    Y ~ LN(mu_n, s_n) is the narrower component. The CDF is
    F(z) = int_0^z f_Y(y) Phi(u) dy with u = (log(z - y) - mu_w) / s_w. The
    y-range is split into two 32-node Gauss-Legendre panels at
    y_s = z s_w / (s_n + s_w), where both standard scores change at one rate.
    Below it the variable is Y's standard score t, and |du/dt| <= 1 there,
    so the nodes that resolve f_Y also resolve Phi(u). Above it the variable
    is r = log(z - y): u is linear in r, and t changes by at most 1/s_w per
    unit of r, so both factors are resolved next to y = z. The survival
    function integrates Phi(-u) instead and adds P(Y > y_c), where y_c is the
    top of the upper panel, beyond which Phi(-u) = 1 to within Phi(-9).

    The derivatives with respect to (mu_n, log s_n, mu_w, log s_w) are taken
    under the integral: f_Y's are f_Y times polynomials in t, Phi's are phi(u)
    times polynomials in u, and the cross terms are products of the two. So
    each is a fixed combination of these sums over the nodes, one column per
    edge, with p = Phi(sign u) and w the quadrature weight times f_Y:
      0-4    sign * sum w p t^i, i = 0..4
      5-8    sum w phi(u) u^j, j = 0..3
      9-10   sum w phi(u) t u^j, j = 0, 1
      11-12  sum w phi(u) t^2 u^j, j = 0, 1
      13-17  -P(Y > y_c) and -phi(t_c) t_c^i, i = 0..3, where sign is -1; else 0
    The sign makes every row a derivative of the CDF, less 1 where the
    survival function is used: Phi(-u) = 1 - Phi(u).
    """
    nodes, weights = _gauss_legendre()
    k = len(nodes)
    log_z = np.log(z)[:, None]
    t = np.empty((len(z), 2 * k))
    # The arguments of Phi: u (signed below) in the first 2k columns, -t_c in the last.
    a = np.empty((len(z), 2 * k + 1))
    u = a[:, :-1]
    # Lower panel, y in (0, y_s]: standard score t of log y.
    t_hi = np.minimum((log_z + math.log(s_w / (s_n + s_w)) - mu_n) / s_n, _TAIL_Z)
    t_lo = np.minimum(-_TAIL_Z, t_hi - 2.0)
    t[:, :k] = t_lo + (t_hi - t_lo) * nodes
    u[:, :k] = (log_z + np.log1p(-np.exp(mu_n + s_n * t[:, :k] - log_z)) - mu_w) / s_w
    # Upper panel, y in (y_s, y_c): r = log(z - y), so u is linear in r.
    r_hi = log_z + math.log(s_n / (s_n + s_w))
    r_lo = np.minimum(mu_w - _TAIL_Z * s_w, r_hi - 2.0)
    r = r_lo + (r_hi - r_lo) * nodes
    gap = np.exp(r - log_z)  # (z - y) / z, at most s_n / (s_n + s_w) <= 1/2
    t[:, k:] = (log_z + np.log1p(-gap) - mu_n) / s_n
    u[:, k:] = (r - mu_w) / s_w
    # Quadrature weights times f_Y's density in each panel's variable.
    w = _phi(t)
    w[:, :k] *= (t_hi - t_lo) * weights
    w[:, k:] *= (r_hi - r_lo) * weights * gap / ((1.0 - gap) * s_n)

    # P(Y > y_c), for the survival function, rides along as one more column.
    t_c = (log_z[:, 0] + np.log1p(-np.exp(r_lo[:, 0] - log_z[:, 0])) - mu_n) / s_n
    u *= sign[:, None]
    a[:, -1] = -t_c
    p, dens = _ndtr(a)
    u *= sign[:, None]  # phi is even, so dens holds phi(u) for the unsigned u too
    sums = np.empty((_N_SUMS, len(z)))
    _moments(w * p[:, :-1], t, sums[0:5])
    sums[0:5] *= sign
    wd = w * dens[:, :-1]
    wdt = wd * t
    wdtt = wdt * t
    _moments(wd, u, sums[5:9])
    _moments(wdt, u, sums[9:11])
    _moments(wdtt, u, sums[11:13])
    survival = np.minimum(sign, 0.0)  # -1 where the survival function is used, else 0
    np.multiply(survival, p[:, -1], out=sums[13])
    np.multiply(survival, dens[:, -1], out=sums[14])
    for i in range(15, 18):
        np.multiply(sums[i - 1], t_c, out=sums[i])
    return sums


def _derivatives(sums, s_n, s_w) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The value, gradient and Hessian with respect to
    (mu_n, log s_n, mu_w, log s_w) that columns of _edge_sums give.

    Every result is linear in the sums, so a difference of columns gives the
    derivatives of a difference of CDFs.
    """
    p0, p1, p2, p3, p4, d0, d1, d2, d3, dt, dtu, dtt, dttu, c0, c1, c2, c3, c4 = sums
    grad = np.empty((sums.shape[1], 4))
    hess = np.empty((sums.shape[1], 4, 4))
    # f_Y's scores in mu_n and log s_n are t/s_n and t^2 - 1.
    grad[:, 0] = (p1 + c1) / s_n
    grad[:, 1] = p2 - p0 + c2
    hess[:, 0, 0] = (p2 - p0 + c2) / (s_n * s_n)
    hess[:, 0, 1] = (p3 - 3.0 * p1 + c3 - c1) / s_n
    hess[:, 1, 1] = p4 - 4.0 * p2 + p0 + c4 - c2
    # Phi(u)'s derivatives in mu_w and log s_w are -phi(u)/s_w and -u phi(u).
    grad[:, 2] = -d0 / s_w
    grad[:, 3] = -d1
    hess[:, 2, 2] = -d1 / (s_w * s_w)
    hess[:, 2, 3] = (d0 - d2) / s_w
    hess[:, 3, 3] = d1 - d3
    hess[:, 0, 2] = -dt / (s_n * s_w)
    hess[:, 0, 3] = -dtu / s_n
    hess[:, 1, 2] = (d0 - dtt) / s_w
    hess[:, 1, 3] = d1 - dttu
    lower = np.tril_indices(4, -1)
    hess[:, lower[0], lower[1]] = hess[:, lower[1], lower[0]]
    return p0 + c0, grad, hess


def _bin_edges(delays: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted unique edges of whole-second bins, and each bin's edge indices."""
    edges, index = np.unique(
        np.concatenate([np.maximum(delays - 0.5, 0.0), delays + 0.5]), return_inverse=True
    )
    return edges, index[: len(delays)], index[len(delays):]


def _bin_masses(theta, edges, lo, hi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bin masses, their gradient and their Hessian with respect to
    (mu1, log s1, mu2, log s2).

    Edges up to exp(mu1) + exp(mu2), where the CDF is between 1/4 and 3/4, use
    the CDF and the rest the survival function, so that no mass is the
    difference of two numbers near 1. The cut-off is compared in log space,
    where no mu overflows it. The edges are processed in blocks.
    """
    mu1, log_s1, mu2, log_s2 = theta
    s1, s2 = math.exp(log_s1), math.exp(log_s2)
    if s1 <= s2:
        narrow, order = (mu1, s1, mu2, s2), [0, 1, 2, 3]
    else:  # the swap is its own inverse
        narrow, order = (mu2, s2, mu1, s1), [2, 3, 0, 1]
    with np.errstate(divide="ignore"):  # log(0) = -inf: the clamped edge 0 is below it
        sign = np.where(np.log(edges) <= np.logaddexp(mu1, mu2), 1.0, -1.0)
    sums = np.zeros((_N_SUMS, len(edges)))
    first = int(len(edges) > 0 and edges[0] <= 0.0)  # the CDF at the clamped edge 0 is 0
    for i in range(first, len(edges), _EDGE_BLOCK):
        block = slice(i, i + _EDGE_BLOCK)
        sums[:, block] = _edge_sums(edges[block], sign[block], *narrow)
    mass, grad, hess = _derivatives(sums[:, hi] - sums[:, lo], narrow[1], narrow[3])
    mass += sign[lo] != sign[hi]
    return mass, grad[:, order], hess[:, order][:, :, order]


def lognormal_sum_bin_masses(
    delays, mu1: float, sigma1: float, mu2: float, sigma2: float
) -> tuple[np.ndarray, np.ndarray]:
    """P(d - 1/2 < X1 + X2 <= d + 1/2) for whole-second delays d >= 0.

    The lower edge is clamped at 0. Returns the masses and their gradient with
    respect to (mu1, log sigma1, mu2, log sigma2), of shape (len(delays), 4).
    """
    d = np.atleast_1d(np.asarray(delays, dtype=float))
    theta = (mu1, math.log(sigma1), mu2, math.log(sigma2))
    mass, grad, _ = _bin_masses(theta, *_bin_edges(d))
    return mass, grad


def _interval_nll(theta, edges, lo, hi, weights) -> tuple[float, np.ndarray, np.ndarray]:
    """Weighted negative interval log-likelihood, its gradient and its Hessian.

    The Hessian is sum w (g g^T / m^2 - H_m / m) over the bins, from each
    mass m and its gradient g and Hessian H_m. Bins at the mass floor add
    nothing to either derivative.
    """
    mass, grad, hess = _bin_masses(theta, edges, lo, hi)
    kept = mass > _MASS_FLOOR
    mass = np.where(kept, mass, _MASS_FLOOR)
    c = weights * kept
    score = grad / mass[:, None]
    info = (score.T * c) @ score - np.einsum("i,ijk->jk", c / mass, hess)
    return -float(weights @ np.log(mass)), -(c @ score), info


def fit_lognormal_convolution(delays: Sequence[float]) -> LognormalConvolutionFit:
    """Maximum-likelihood fit of a sum of two lognormals to delay samples.

    Delays are whole seconds: each positive delay is rounded to the nearest
    second (halves to even) and the likelihood is that of the interval
    (d - 1/2, d + 1/2], evaluated once per distinct delay. It is maximized
    by `minimize` with its analytic gradient and Hessian from two
    moment-based starting points. Components are reported with mu1 >= mu2
    (the slower one first).
    """
    d = np.asarray(delays, dtype=float)
    n_rejected = int((d <= 0).sum())
    d = d[d > 0]
    if len(d) < _MIN_SAMPLES:
        raise ValueError(
            f"need at least {_MIN_SAMPLES} positive samples, got {len(d)} "
            f"({n_rejected} non-positive rejected)"
        )
    values, counts = np.unique(np.rint(d), return_counts=True)
    bins = _bin_edges(values)
    weights = counts / len(d)  # per-sample scale: duplicating the sample changes nothing
    logs = np.log(np.maximum(values, 0.5))
    m = float(weights @ logs)
    s = max(math.sqrt(float(weights @ (logs - m) ** 2)), 0.05)
    starts = [
        (m - 0.7, math.log(s * 1.2), m - 0.7, math.log(s * 0.6)),
        (m - 0.1, math.log(s * 0.7), m - 2.5, math.log(s * 1.5)),
    ]
    bounds = [(None, None), _LOG_SIGMA_BOUNDS, (None, None), _LOG_SIGMA_BOUNDS]
    best = None
    nfev = 0
    for x0 in starts:
        res = minimize(_interval_nll, np.array(x0), args=(*bins, weights), bounds=bounds)
        nfev += int(res.nfev)
        if best is None or res.fun < best.fun:
            best = res
    if best is None or not np.isfinite(best.fun):
        raise FitConvergenceError("optimizer failed to produce a finite likelihood")
    # Standard errors from the observed information: the Hessian at the fit.
    info = _interval_nll(best.x, *bins, counts)[2]
    try:
        np.linalg.cholesky(info)
    except np.linalg.LinAlgError:
        se, positive_definite = np.full(4, np.nan), False
    else:
        se, positive_definite = np.sqrt(np.diag(np.linalg.inv(info))), True
    mu1, log_s1, mu2, log_s2 = best.x
    s1, s2 = math.exp(log_s1), math.exp(log_s2)
    se_mu1, se_s1, se_mu2, se_s2 = se * (1.0, s1, 1.0, s2)  # delta method for sigma
    if mu2 > mu1:
        mu1, s1, mu2, s2 = mu2, s2, mu1, s1
        se_mu1, se_s1, se_mu2, se_s2 = se_mu2, se_s2, se_mu1, se_s1
    ses = (se_mu1, se_s1, se_mu2, se_s2)
    return LognormalConvolutionFit(
        mu1=float(mu1), sigma1=float(s1),
        mu2=float(mu2), sigma2=float(s2),
        loglik=-float(best.fun) * len(d), n=len(d), n_rejected=n_rejected,
        n_unique=len(values), nfev=nfev, converged=bool(best.success),
        se_mu1=float(se_mu1), se_sigma1=float(se_s1),
        se_mu2=float(se_mu2), se_sigma2=float(se_s2),
        identifiable=positive_definite and all(e <= _IDENTIFIABLE_SE for e in ses),
    )


@dataclass(frozen=True)
class LittleBound:
    """Lower bounds on reading delays from the feed balance N = lam * delay.

    All rates in events/hour, delays in hours. n_r (the mean queue position at
    forward time) lower-bounds the mean number of unread items, which is what
    makes the derived delays lower bounds.
    """

    lam: float
    lam_r: float
    lam_nr: float
    delta_r: float       # mean observed forward delay
    n_r: float           # mean queue position at forward time
    delta_nr_star: float  # lower bound on the mean non-forward reading delay
    delta_star: float     # lower bound on the mean overall reading delay
    clamped: bool         # n_r too small to bound; delta_nr_star clamped to 0


def little_bounds(lam: float, lam_r: float, delta_r: float, n_r: float) -> LittleBound:
    """Bound the non-forward and overall reading delays for one user or bin."""
    if delta_r < 0 or n_r < 0:
        raise ValueError("delta_r and n_r must be non-negative")
    lam_nr = lam - lam_r
    if lam_nr <= 0:
        raise ValueError("no non-forwarded traffic (lam_nr must be positive)")
    raw = (n_r - lam_r * delta_r) / lam_nr
    clamped = raw < 0
    delta_nr_star = max(0.0, raw)
    delta_star = (lam_r * delta_r + lam_nr * delta_nr_star) / lam
    return LittleBound(
        lam=lam,
        lam_r=lam_r,
        lam_nr=lam_nr,
        delta_r=delta_r,
        n_r=n_r,
        delta_nr_star=delta_nr_star,
        delta_star=delta_star,
        clamped=clamped,
    )
