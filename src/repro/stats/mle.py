"""Maximum-likelihood fits of the paper's candidate failure distributions.

Fig. 9 overlays exponential, gamma, and Weibull fits on the empirical
time-between-failure CDFs and reports that the gamma distribution best
fits *disk* failures while none of the three fits the burstier types.
The fitters here implement the standard MLE estimators directly (Newton
iterations on the profile likelihood for gamma and Weibull shapes) so
the library does not depend on ``scipy.stats`` fitting conventions.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np
from scipy import special

from repro.errors import FittingError

_MAX_ITERATIONS = 200
_TOLERANCE = 1e-10

#: Distributions :func:`safe_fit` knows how to fit.
FIT_FAMILIES = ("exponential", "gamma", "weibull", "piecewise_exponential")


@dataclasses.dataclass(frozen=True)
class FitResult:
    """Outcome of one distribution fit.

    Attributes:
        name: ``"exponential" | "gamma" | "weibull"``.
        params: named parameter estimates.
        log_likelihood: maximized log-likelihood.
        n: sample size.
    """

    name: str
    params: Dict[str, float]
    log_likelihood: float
    n: int

    @property
    def aic(self) -> float:
        """Akaike information criterion (lower is better)."""
        return 2.0 * len(self.params) - 2.0 * self.log_likelihood

    def cdf(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the fitted CDF at ``x``."""
        return cdf_function(self.name, self.params)(np.asarray(x, dtype=float))


@dataclasses.dataclass(frozen=True)
class FitError:
    """A fit that could not be performed, as a value instead of a raise.

    The optimizers in this module raise :class:`FittingError` on
    degenerate input (zero or duplicate interarrivals, too few samples,
    non-convergence).  Callers that fit many small samples in a loop —
    the fitted hazard backend, Fig. 9 over rare failure types — want to
    *record* the failure and move on; :func:`safe_fit` hands them this
    typed result instead of an exception.

    Attributes:
        name: the distribution family that was attempted.
        reason: human-readable cause of the failure.
        n: sample size (0 when the data could not even be coerced).
    """

    name: str
    reason: str
    n: int


def _degeneracy(values: np.ndarray) -> str:
    """A typed-FitError reason for un-fittable data ('' when fittable)."""
    if values.size < 3:
        return "need at least 3 observations, got %d" % values.size
    if np.any(values <= 0.0):
        return "interarrivals must be strictly positive"
    if float(np.ptp(values)) == 0.0:
        return "degenerate sample: all interarrivals equal"
    return ""


def safe_fit(
    name: str, data: Iterable[float]
) -> Union[FitResult, "FitError"]:
    """Fit one family, returning :class:`FitError` instead of raising.

    Degenerate inputs (n < 3, non-positive values, all-equal samples)
    are rejected up front with a descriptive reason; optimizer failures
    (non-convergence, unbracketable shapes) are converted on the way
    out.
    """
    try:
        values = np.asarray([float(v) for v in data], dtype=float)
    except (TypeError, ValueError) as error:
        return FitError(name=name, reason=str(error), n=0)
    reason = _degeneracy(values)
    if reason:
        return FitError(name=name, reason=reason, n=int(values.size))
    fitters: Dict[str, Callable[[Iterable[float]], FitResult]] = {
        "exponential": fit_exponential,
        "gamma": fit_gamma,
        "weibull": fit_weibull,
        "piecewise_exponential": fit_piecewise_exponential,
    }
    if name not in fitters:
        return FitError(
            name=name,
            reason="unknown distribution %r" % name,
            n=int(values.size),
        )
    try:
        return fitters[name](values)
    except FittingError as error:
        return FitError(name=name, reason=str(error), n=int(values.size))


def safe_fit_all(
    data: Iterable[float],
) -> Tuple[List[FitResult], List["FitError"]]:
    """Fit every family in :data:`FIT_FAMILIES`; never raises.

    Returns:
        ``(fits, errors)`` — successful fits sorted best
        log-likelihood first, plus one :class:`FitError` per family
        that could not be fitted.
    """
    values = list(data)
    fits: List[FitResult] = []
    errors: List[FitError] = []
    for name in FIT_FAMILIES:
        outcome = safe_fit(name, values)
        if isinstance(outcome, FitResult):
            fits.append(outcome)
        else:
            errors.append(outcome)
    fits.sort(key=lambda fit: fit.log_likelihood, reverse=True)
    return fits, errors


def _clean(data: Iterable[float]) -> np.ndarray:
    if not isinstance(data, np.ndarray):
        data = list(data)
    values = np.asarray(data, dtype=np.float64)
    if values.size < 2:
        raise FittingError("need at least 2 observations, got %d" % values.size)
    if np.any(values <= 0.0):
        raise FittingError("waiting-time data must be strictly positive")
    return values


def fit_exponential(data: Iterable[float]) -> FitResult:
    """MLE exponential fit: rate = 1 / sample mean."""
    values = _clean(data)
    mean = float(values.mean())
    rate = 1.0 / mean
    loglik = values.size * math.log(rate) - rate * float(values.sum())
    return FitResult(
        name="exponential",
        params={"rate": rate},
        log_likelihood=loglik,
        n=values.size,
    )


def fit_gamma(data: Iterable[float]) -> FitResult:
    """MLE gamma fit via Newton iteration on the shape equation.

    Solves ``log(k) - digamma(k) = log(mean) - mean(log x)`` with the
    Minka-style update, then sets ``scale = mean / k``.
    """
    values = _clean(data)
    mean = float(values.mean())
    mean_log = float(np.log(values).mean())
    s = math.log(mean) - mean_log
    if s <= 0.0:
        raise FittingError("degenerate sample: zero variance of logs")
    # Standard starting point from the method-of-moments-ish approximation.
    shape = (3.0 - s + math.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)
    for _ in range(_MAX_ITERATIONS):
        numerator = math.log(shape) - float(special.digamma(shape)) - s
        denominator = 1.0 / shape - float(special.polygamma(1, shape))
        step = numerator / denominator
        new_shape = shape - step
        if new_shape <= 0.0:
            new_shape = shape / 2.0
        if abs(new_shape - shape) < _TOLERANCE * shape:
            shape = new_shape
            break
        shape = new_shape
    else:
        raise FittingError("gamma shape iteration did not converge")
    scale = mean / shape
    loglik = float(
        np.sum(
            (shape - 1.0) * np.log(values)
            - values / scale
            - shape * math.log(scale)
            - special.gammaln(shape)
        )
    )
    return FitResult(
        name="gamma",
        params={"shape": shape, "scale": scale},
        log_likelihood=loglik,
        n=values.size,
    )


def fit_weibull(data: Iterable[float]) -> FitResult:
    """MLE Weibull fit via Newton iteration on the shape equation.

    Solves ``sum(x^k log x)/sum(x^k) - 1/k - mean(log x) = 0`` for the
    shape ``k``, then ``scale = (mean(x^k))^(1/k)``.
    """
    values = _clean(data)
    logs = np.log(values)
    mean_log = float(logs.mean())

    def g(k: float) -> float:
        powered = np.power(values, k)
        return float((powered * logs).sum() / powered.sum() - 1.0 / k - mean_log)

    # g is increasing in k; bracket a root then bisect (robust for the
    # heavy-tailed samples bursty failure data produces).
    low, high = 1e-3, 1.0
    for _ in range(200):
        if g(high) > 0.0:
            break
        high *= 2.0
    else:
        raise FittingError("could not bracket the Weibull shape")
    if g(low) > 0.0:
        raise FittingError("could not bracket the Weibull shape from below")
    for _ in range(_MAX_ITERATIONS):
        mid = 0.5 * (low + high)
        if g(mid) > 0.0:
            high = mid
        else:
            low = mid
        if high - low < _TOLERANCE * high:
            break
    shape = 0.5 * (low + high)
    scale = float(np.power(np.power(values, shape).mean(), 1.0 / shape))
    loglik = float(
        np.sum(
            math.log(shape)
            - shape * math.log(scale)
            + (shape - 1.0) * np.log(values)
            - np.power(values / scale, shape)
        )
    )
    return FitResult(
        name="weibull",
        params={"shape": shape, "scale": scale},
        log_likelihood=loglik,
        n=values.size,
    )


def fit_piecewise_exponential(
    data: Iterable[float], n_pieces: Optional[int] = None
) -> FitResult:
    """MLE piecewise-constant-hazard fit over quantile-spaced intervals.

    The time axis is split at the sample's ``1/n_pieces`` quantiles and
    the hazard is taken constant within each interval; the MLE rate per
    interval is deaths over exposure, ``rate_j = d_j / E_j``.  This is
    the flexible fallback the fitted hazard backend uses when none of
    the parametric families passes: it can track the heavy burst of
    short gaps *and* the long tail the paper observes (§5.2.1).

    ``n_pieces`` defaults to ``clip(sqrt(n) / 2, 4, 24)``: resolution
    grows with the sample so a large bursty trace gets enough intervals
    to track its CDF, while each interval keeps ~``2 sqrt(n)`` expected
    deaths and the rate estimates stay stable.

    Parameters are flattened as ``break_1..break_{m-1}`` (interval
    upper edges, the last interval being unbounded) and
    ``rate_1..rate_m``.
    """
    values = _clean(data)
    if n_pieces is None:
        n_pieces = int(np.clip(math.sqrt(values.size) / 2.0, 4, 24))
    if n_pieces < 1:
        raise FittingError("need at least 1 piece, got %d" % n_pieces)
    if values.size < 2 * n_pieces:
        raise FittingError(
            "need at least %d observations for %d pieces, got %d"
            % (2 * n_pieces, n_pieces, values.size)
        )
    quantiles = np.quantile(values, np.arange(1, n_pieces) / n_pieces)
    breaks = np.unique(quantiles)
    edges = np.concatenate(([0.0], breaks, [np.inf]))
    params: Dict[str, float] = {}
    loglik = 0.0
    for j in range(len(edges) - 1):
        low, high = edges[j], edges[j + 1]
        deaths = int(np.count_nonzero((values > low) & (values <= high)))
        # Exposure inside [low, high): each sample spends
        # min(x, high) - low there once it has survived past low.
        exposure = float(
            np.sum(np.clip(np.minimum(values, high) - low, 0.0, None))
        )
        if exposure <= 0.0:
            raise FittingError("empty exposure interval in piecewise fit")
        rate = deaths / exposure
        params["rate_%d" % (j + 1)] = rate
        if deaths and rate > 0.0:
            loglik += deaths * math.log(rate)
        loglik -= rate * exposure
    for j, edge in enumerate(breaks):
        params["break_%d" % (j + 1)] = float(edge)
    return FitResult(
        name="piecewise_exponential",
        params=params,
        log_likelihood=loglik,
        n=values.size,
    )


def _piecewise_edges_rates(
    params: Dict[str, float],
) -> Tuple[np.ndarray, np.ndarray]:
    """Recover (interval edges, per-interval rates) from flat params."""
    breaks = [
        params[key]
        for key in sorted(
            (k for k in params if k.startswith("break_")),
            key=lambda k: int(k.split("_")[1]),
        )
    ]
    rates = [
        params[key]
        for key in sorted(
            (k for k in params if k.startswith("rate_")),
            key=lambda k: int(k.split("_")[1]),
        )
    ]
    if len(rates) != len(breaks) + 1:
        raise FittingError("piecewise params need one more rate than breaks")
    edges = np.concatenate(([0.0], np.asarray(breaks, dtype=float)))
    return edges, np.asarray(rates, dtype=float)


def cdf_function(name: str, params: Dict[str, float]) -> Callable[[np.ndarray], np.ndarray]:
    """CDF evaluator for a named distribution and parameter dict."""
    if name == "piecewise_exponential":
        edges, rates = _piecewise_edges_rates(params)
        # Cumulative hazard at each interval's left edge; within an
        # interval H grows linearly at that interval's rate, and
        # F = 1 - exp(-H).
        base = np.concatenate(
            ([0.0], np.cumsum(rates[:-1] * np.diff(edges)))
        )

        def _cdf(x: np.ndarray) -> np.ndarray:
            x = np.maximum(np.asarray(x, dtype=float), 0.0)
            index = np.searchsorted(edges, x, side="right") - 1
            index = np.clip(index, 0, len(rates) - 1)
            hazard = base[index] + rates[index] * (x - edges[index])
            return 1.0 - np.exp(-hazard)

        return _cdf
    if name == "exponential":
        rate = params["rate"]
        return lambda x: 1.0 - np.exp(-rate * np.maximum(x, 0.0))
    if name == "gamma":
        shape, scale = params["shape"], params["scale"]
        return lambda x: special.gammainc(shape, np.maximum(x, 0.0) / scale)
    if name == "weibull":
        shape, scale = params["shape"], params["scale"]
        return lambda x: 1.0 - np.exp(-np.power(np.maximum(x, 0.0) / scale, shape))
    raise FittingError("unknown distribution %r" % name)


def fit_all(data: Iterable[float]) -> List[FitResult]:
    """Fit all three candidates, best log-likelihood first."""
    values = _clean(data)
    fits = [fit_exponential(values), fit_gamma(values), fit_weibull(values)]
    return sorted(fits, key=lambda fit: fit.log_likelihood, reverse=True)
