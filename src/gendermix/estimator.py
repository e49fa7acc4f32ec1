"""Group gender-composition estimators built on a name reference table.

Per-name baselines:

* ``method0`` attributes each matched individual fractionally, by the
  reference conditional probabilities p(g|name);
* ``method1`` does the same but only for names whose larger conditional
  probability reaches a cutoff p_c (inclusive);
* ``method2`` hard-assigns every bearer of a name to the gender whose
  conditional probability strictly exceeds p_c.

The global estimator ``ggem`` instead models the group as a leaky-pipeline
draw from the reference population: each name's female odds are multiplied
by a single unknown ratio eta, and the group composition gamma is the value
that makes the transformed per-name expectations sum to a self-consistent
total. The defining residual

    R(gamma) = sum_s N(s) * (delta(s) - gamma*) /
               (1 - gamma* * delta(s) + (delta(s) - gamma*) * gamma)

with delta(s) = 2 p(female|s) - 1 is strictly decreasing in gamma, so the
root is unique. Each denominator is computed as a sum of two terms that
are never negative, so every computed denominator is positive and the
computed residual non-increasing on (-1, 1) too. A Newton search in log-odds x = log(alpha)
finds the root, and the returned gamma is certified to w = 1e-13: the
computed residual is >= 0 at gamma - w and <= 0 at gamma + w. When the
residual never crosses zero the estimate clamps to gamma = +/-1.
``gamma_star`` is the overall imbalance of the reference population
itself (0 for a balanced one).

Compositions are expressed interchangeably as a female/male ratio alpha in
[0, inf], a female fraction beta in [0, 1] or an imbalance
gamma = 2*beta - 1 in [-1, 1].
"""

import logging
import math
from dataclasses import asdict, dataclass, replace
from typing import NamedTuple

import numpy as np

from ._fmt import dump_json
from .errors import EstimationError, InputError
from .reference import ReferenceTable, TargetList, _is_count, _is_real, _total

logger = logging.getLogger(__name__)

METHOD_0 = "method0"
METHOD_1 = "method1"
METHOD_2 = "method2"
METHOD_GGEM = "ggem"
METHODS = (METHOD_0, METHOD_1, METHOD_2, METHOD_GGEM)

_METHOD_ALIASES = {
    "m0": METHOD_0,
    "m1": METHOD_1,
    "m2": METHOD_2,
    METHOD_0: METHOD_0,
    METHOD_1: METHOD_1,
    METHOD_2: METHOD_2,
    METHOD_GGEM: METHOD_GGEM,
}

# The Newton search runs in log-odds x = log(alpha) over [-40, 40], where
# tanh(x / 2) reaches +/-1 in floats. It stops once a step in x is this
# small, or after this many passes.
_X_BRACKET = 40.0
_NEWTON_STEP = 1e-8
_NEWTON_PASSES = 12
# The certified width w: the computed residual is >= 0 at gamma - w, <= 0 at gamma + w.
_CERTIFY_WIDTH = 1e-13
# A ggem bootstrap ranks its resamples against residual thresholds at these
# multiples of the delta-method standard deviation on each side of the full
# target's root. Every bootstrap draws resamples in blocks of at most
# _CHUNK_COUNTS counts (8 MiB).
_LADDER_SIGMAS = np.linspace(1.0, 3.0, 6)
_CHUNK_COUNTS = 2**20
# The unit roundoff of float64, and a resample's bucket when it is solved
# exactly (one of its residual signs is not certified, or there is no
# ladder) or when it drew no matched name.
_UNIT_ROUNDOFF = 2.0**-53
_UNCERTAIN = -1
_DEGENERATE = -2


@dataclass(frozen=True)
class GenderComposition:
    """One composition stated three ways: alpha, beta and gamma.

    Constructed through one of the ``from_*`` classmethods so the three
    parametrizations stay mutually consistent. ``alpha`` is +inf for an
    all-female group.
    """

    gamma: float
    beta: float
    alpha: float

    @classmethod
    def from_gamma(cls, gamma: float) -> "GenderComposition":
        gamma = _checked("gamma", gamma, -1.0, 1.0)
        beta = (1.0 + gamma) / 2.0
        alpha = math.inf if gamma == 1.0 else (1.0 + gamma) / (1.0 - gamma)
        return cls(gamma, beta, alpha)

    @classmethod
    def from_beta(cls, beta: float) -> "GenderComposition":
        beta = _checked("beta", beta, 0.0, 1.0)
        gamma = 2.0 * beta - 1.0
        alpha = math.inf if beta == 1.0 else beta / (1.0 - beta)
        return cls(gamma, beta, alpha)

    @classmethod
    def from_alpha(cls, alpha: float) -> "GenderComposition":
        alpha = _checked("alpha", alpha, 0, math.inf)
        if math.isinf(alpha):
            return cls(1.0, 1.0, math.inf)
        return cls((alpha - 1.0) / (alpha + 1.0), alpha / (1.0 + alpha), alpha)


def _checked(label: str, value: float, lo: float, hi: float) -> float:
    """``value`` as a float: a real number, not a bool or a string, in
    [lo, hi]; else InputError."""
    if _is_real(value):
        value = float(value)
        if lo <= value <= hi:  # false for NaN
            return value
    raise InputError(f"{label} must be in [{lo}, {hi}], got {value!r}")


def _check_gamma_star(gamma_star: float) -> None:
    if not (_is_real(gamma_star) and -1.0 < gamma_star < 1.0):
        raise InputError(f"gamma_star must be strictly inside (-1, 1), got {gamma_star!r}")


def convert_composition(value: float, from_: str) -> GenderComposition:
    """Build a :class:`GenderComposition` from one named parametrization."""
    builders = {
        "alpha": GenderComposition.from_alpha,
        "beta": GenderComposition.from_beta,
        "gamma": GenderComposition.from_gamma,
    }
    if from_ not in builders:
        raise InputError(f"unknown composition axis {from_!r}")
    return builders[from_](value)


@dataclass(frozen=True)
class PipelineRatio:
    """Leaky-pipeline strength.

    ``eta`` is the female-to-male odds multiplier the pipeline applies to
    every name once the reference is debiased to gender balance; when the
    reference is already balanced (``gamma_star`` = 0, the default) it is
    simply the female/male survival-rate ratio. ``gamma_star`` is the
    overall imbalance of the reference population, strictly inside (-1, 1).
    """

    eta: float
    gamma_star: float = 0.0

    def __post_init__(self) -> None:
        if not (_is_real(self.eta) and 0.0 < self.eta < math.inf):
            raise InputError(f"eta must be finite and positive, got {self.eta!r}")
        _check_gamma_star(self.gamma_star)


def inclination(p_female: float) -> float:
    """Signed inclination 2*p - 1 of a conditional female probability."""
    return 2.0 * _checked("p_female", p_female, 0.0, 1.0) - 1.0


def _shift_odds(p: float | np.ndarray, ratio: float, gamma_star: float):
    """Multiply the female odds of ``p`` by ``ratio``: ratio*p / (ratio*p + (1-p)).
    A nonzero ``gamma_star`` first removes the reference's own imbalance,
    dividing the odds by alpha* = (1 + gamma*) / (1 - gamma*)."""
    if gamma_star != 0.0:
        alpha_star = (1.0 + gamma_star) / (1.0 - gamma_star)
        p = p / (p + alpha_star * (1.0 - p))
    return ratio * p / (ratio * p + (1.0 - p))


def transform_conditional(p_reference_female: float, pipeline: PipelineRatio) -> float:
    """Conditional female probability of a name inside the target group.

    Multiplies the name's female odds by ``pipeline.eta``:
    p_T = eta*p / (eta*p + (1-p)). With eta = 1 the input is returned
    unchanged, bit for bit. A nonzero ``gamma_star`` first maps the
    reference probability to its debiased (balanced-reference) form.
    """
    p = _checked("p_reference_female", p_reference_female, 0.0, 1.0)
    return _shift_odds(p, pipeline.eta, pipeline.gamma_star)


class _Matched(NamedTuple):
    """Target names found in the reference, in sorted-key order."""

    positions: np.ndarray  # of the matched names in target.keys
    counts: np.ndarray
    p_female: np.ndarray


def _match(target: TargetList, reference: ReferenceTable) -> _Matched:
    return _match_rows(reference.rows_of(target.keys), target.counts, reference)


def _match_rows(rows: np.ndarray, counts: np.ndarray, reference: ReferenceTable) -> _Matched:
    """The matched arrays of sorted target names whose reference rows
    (``rows_of``, -1 where absent) and counts are given."""
    positions = np.flatnonzero(rows >= 0)
    if not positions.size:
        raise EstimationError("no target name appears in the reference")
    p_female = reference.p_female_of(rows.take(positions))
    return _Matched(positions, counts.take(positions).astype(float), p_female)


class _DeltaTerms(NamedTuple):
    """The ggem solver's per-name terms that depend only on the matched
    deltas and ``gamma_star``: built once per matched target and gathered
    row by row for each bootstrap resample. Only the products with the
    counts are formed per solve. The Newton search's shares are the limit
    denominators limit_hi : limit_lo, in the ratio p~ : q~."""

    gamma_star: float
    num: np.ndarray  # delta - gamma_star
    # Denominators of the residual's limits at gamma -> 1 and -1, computed
    # as written. limit_hi is 0 exactly at a pole, delta = -1: 1 + delta is
    # 0 or at least 2**-53 and 1 - gamma_star at least 2**-53, so their
    # product is 0 or at least 2**-106, which does not round to 0. Likewise
    # limit_lo at delta = +1.
    limit_hi: np.ndarray  # (1 + delta)(1 - gamma_star)
    limit_lo: np.ndarray  # (1 - delta)(1 + gamma_star)
    # The residual denominator 1 - gamma_star * delta + num * gamma is
    # computed as anchor + num * (gamma + side), its exact equal:
    # side = sign(num) and anchor the limit denominator at gamma = -side.
    anchor: np.ndarray  # limit_lo where num > 0, else limit_hi
    side: np.ndarray  # 1 where num > 0, else -1

    def take(self, rows: np.ndarray) -> "_DeltaTerms":
        """The terms of the names at ``rows``, in that order."""
        return _DeltaTerms(self.gamma_star, *(column.take(rows) for column in self[1:]))

    def denominators(self, gamma: float) -> np.ndarray:
        """Every name's residual denominator at ``gamma`` in (-1, 1). Both
        addends are >= 0 in floating point: anchor is a product of
        non-negative factors, and fl(gamma + side) keeps side's sign, so
        num * (gamma + side) is positive, and at least 2**-106 where anchor
        is 0 (a pole, |num| >= 2**-53). So every denominator is positive,
        and rounding being monotone, each term num / denominator is
        non-increasing in gamma."""
        return self.anchor + self.num * (self.side + gamma)


def _delta_terms(deltas: np.ndarray, gamma_star: float) -> _DeltaTerms:
    num = deltas - gamma_star
    limit_hi, limit_lo = (1.0 + deltas) * (1.0 - gamma_star), (1.0 - deltas) * (1.0 + gamma_star)
    positive = num > 0.0
    return _DeltaTerms(
        gamma_star, num, limit_hi, limit_lo, np.where(positive, limit_lo, limit_hi), np.where(positive, 1.0, -1.0)
    )


def residual(
    gamma: float,
    target: TargetList,
    reference: ReferenceTable,
    gamma_star: float = 0.0,
) -> float:
    """Self-consistency residual at an interior gamma.

    Zero exactly at the group composition implied by the pipeline model.
    Strictly decreasing in gamma whenever any matched name has
    delta != gamma_star; identically zero terms come from names with
    delta = gamma_star, adding such names never moves the root. It is
    computed as the ggem solve computes it, with every denominator a sum of
    two non-negative terms, so the computed value is finite and
    non-increasing in gamma.
    """
    if not (_is_real(gamma) and -1.0 < gamma < 1.0):
        raise InputError(f"gamma must be strictly inside (-1, 1), got {gamma!r}")
    _check_gamma_star(gamma_star)
    m = _match(target, reference)
    terms = _delta_terms(2.0 * m.p_female - 1.0, gamma_star)
    return _residual_sum(m.counts * terms.num, terms, gamma)


def _residual_sum(weighted: np.ndarray, terms: _DeltaTerms, gamma: float) -> float:
    """The residual at ``gamma`` in (-1, 1), given weighted = counts * num."""
    return float((weighted / terms.denominators(gamma)).sum())


def _log_odds_pass(
    x: float,
    female_w: np.ndarray,
    male_w: np.ndarray,
    spread_w: np.ndarray,
    share_f: np.ndarray,
    share_m: np.ndarray,
) -> tuple[float, float]:
    """One Newton pass on the self-consistency condition in log-odds.

    With alpha = e^x, a name's target probability is
    p_T = sigma(x + logit p~) = alpha share_f / (alpha share_f + share_m),
    where share_f : share_m = p~ : q~ (p~ the debiased conditional): the
    limit denominators limit_hi and limit_lo of :class:`_DeltaTerms`. The
    pass evaluates m(x) = logit(F / N) - x with F = sum N p_T, M = N - F
    and V = sum N p_T (1 - p_T), from the weights female_w = N share_f,
    male_w = N share_m and spread_w = N share_f share_m; m has the sign and
    the root of h(x) = F - N sigma(x) and of the residual, and its slope
    V/F + V/M - 1 lies in [-1, 0). Returns m and the Newton step
    (NaN where the computed slope is not negative).
    """
    alpha = math.exp(x)
    recip = 1.0 / (share_f * alpha + share_m)
    female = alpha * float(np.dot(female_w, recip))
    male = float(np.dot(male_w, recip))
    spread = alpha * float(np.dot(spread_w, recip * recip))
    if not (female > 0.0 and male > 0.0):
        return math.nan, math.nan
    m = math.log(female / male) - x
    slope = spread / female + spread / male - 1.0
    return m, (-m / slope if slope < 0.0 else math.nan)


def _newton_root(x: float, x_lo: float, x_hi: float, weights: tuple) -> float:
    """Approximate residual root in log-odds, from a safeguarded Newton
    search that starts at ``x`` in [x_lo, x_hi]; a step that leaves the
    bracket bisects instead. ``weights`` are :func:`_log_odds_pass`'s five
    arrays."""
    for _ in range(_NEWTON_PASSES):
        m, step = _log_odds_pass(x, *weights)
        if m > 0.0:
            x_lo = x
        elif m < 0.0:
            x_hi = x
        else:
            break
        x_next = x + step
        # A step too small to leave the bracket can still land on the end
        # just set at x: take it.
        if not (abs(step) <= _NEWTON_STEP or x_lo < x_next < x_hi):
            x_next = 0.5 * (x_lo + x_hi)
        done = abs(x_next - x) <= _NEWTON_STEP
        x = x_next
        if done:
            break
    return x


def _log_odds(gamma: float) -> float:
    """x = log(alpha) of gamma, with +/-1 at the ends of the search bracket."""
    return 2.0 * math.atanh(gamma) if abs(gamma) < 1.0 else math.copysign(_X_BRACKET, gamma)


def _solve_gamma(counts: np.ndarray, terms: _DeltaTerms) -> tuple[float, bool]:
    """Root of the residual on [-1, 1]; returns (gamma, clamped).

    ``terms`` are the matched names' :class:`_DeltaTerms`, in the order of
    ``counts``; names with num = 0 are dropped first, so they never change
    a bit. Past the clamp rules, a Newton search in log-odds from x = 0,
    whose shares are the stored limit denominators limit_hi : limit_lo
    (p~ : q~), locates the root, and gamma is returned once the computed
    residual is >= 0 at gamma - w and <= 0 at gamma + w. Each read moves
    the bracket end on its sign's side to its point; the ends start at -1
    and 1, whose signs the clamp rules fixed, and the residual is
    monotone, so a probe at or past an end reads that end's sign. After a
    failed probe the search restarts where it stopped, clamped into the
    new bracket. Every computed term is non-increasing in gamma
    (:meth:`_DeltaTerms.denominators`), so the computed residual is too,
    and a read's sign holds at every point past it. Nothing but the counts
    and terms enters the result.
    """
    if not terms.num.all():
        signed = np.flatnonzero(terms.num)
        counts, terms = counts.take(signed), terms.take(signed)
    if not len(counts):
        # All matched names sit exactly at the reference imbalance: the
        # residual is identically zero and gamma_star is the natural root.
        return terms.gamma_star, False
    weighted = counts * terms.num

    # One-sided limits at the endpoints. A delta = -1 name (a zero in
    # limit_hi) sends the residual to -inf as gamma -> 1^-, which
    # guarantees a crossing; symmetrically for delta = +1 at gamma -> -1^+.
    # A limit of exactly 0 is a root at that end, not a clamp.
    limit_hi = float(np.sum(weighted / terms.limit_hi)) if terms.limit_hi.all() else -math.inf
    if limit_hi >= 0.0:
        return 1.0, limit_hi > 0.0
    limit_lo = float(np.sum(weighted / terms.limit_lo)) if terms.limit_lo.all() else math.inf
    if limit_lo <= 0.0:
        return -1.0, limit_lo < 0.0

    share_f, share_m = terms.limit_hi, terms.limit_lo
    female_w = counts * share_f
    weights = (female_w, counts * share_m, female_w * share_m, share_f, share_m)
    lo, hi = -1.0, 1.0

    def certified(point: float, side: float) -> bool:
        """Whether side * residual(point) >= 0, past an end or by a read,
        which moves the end on its sign's side to ``point`` (both at 0)."""
        nonlocal lo, hi
        if point <= lo if side > 0.0 else point >= hi:
            return True
        value = _residual_sum(weighted, terms, point)
        if value >= 0.0:
            lo = point
        if value <= 0.0:
            hi = point
        return side * value >= 0.0

    x = 0.0
    # Every failed probe moves an end inward by at least w, and once the
    # bracket is narrower than w every probe lies past an end.
    while True:
        x = _newton_root(x, _log_odds(lo), _log_odds(hi), weights)
        gamma = min(max(math.tanh(0.5 * x), lo), hi)
        if certified(gamma - _CERTIFY_WIDTH, 1.0) and certified(gamma + _CERTIFY_WIDTH, -1.0):
            return gamma, False
        x = min(max(x, _log_odds(lo)), _log_odds(hi))


class _Ladder(NamedTuple):
    """Certified residual signs of many ggem resamples at once.

    Each threshold t of t_0 < ... < t_{m-1}, with |t| < 1 - 2w, gets two
    points, t - 2w and t + 2w (w = _CERTIFY_WIDTH). Per matched name,
    ``weights`` holds the residual weight num / d(p) at each point p, with
    d(p) the denominator :meth:`_DeltaTerms.denominators` computes, the
    limit weights num / limit_hi and num / limit_lo (0 at a pole), the
    absolute values of these 2m + 2 columns, and the two pole flags: 4m + 6
    columns. One product of a block of resamples' counts c with it gives,
    per resample, P ~ sum c w and A ~ sum c |w| for each signed column, and
    how many people it drew at each pole.

    The sign :func:`_solve_gamma` computes at p is certified to be P's when
    |P| > 2 (k + 4) u A (1 + 2**-16) + N 2**-1070, with k the number of
    matched names, u = 2**-53 and N the target's total. Let S be the exact
    sum of |c num / (anchor + num (p + side))| over the stored terms. d(p)
    adds two non-negative numbers, so its three roundings leave it within
    3u of exact; each of the solve's terms fl(c num) / d(p) is then within
    5u, and its sum adds (k - 1) u S; each product weight num / d(p) is
    within 4u, and the dot product adds k u S, in any summation order, with
    or without fused multiply-adds. (This assumes the product is formed
    from ordinary dot products, as BLAS libraries form it, not by a fast
    Strassen-like scheme.) So P and the solve's value differ by at most
    2 (k + 4) u S to first order, S <= A (1 + (k + 4) u), and the factor
    1 + 2**-16 covers the second-order terms, which ``at`` keeps below it
    by requiring (k + 4) u <= 2**-20. The N 2**-1070 term covers underflow.
    A limit's sign is certified the same way (its terms carry 2u and 1u),
    or by a drawn pole.

    The solve returns gamma only where its computed residual R reads >= 0
    at a point at or above gamma - w (or gamma - w <= -1) and <= 0 at a
    point at or below gamma + w (or gamma + w >= 1): the probe itself or a
    bracket end. Every computed term is non-increasing in the point, and
    so is R, summed in a fixed order: a certified R(t - 2w) < 0 puts
    gamma - w below t - 2w, and a certified R(t + 2w) > 0 puts gamma + w
    above t + 2w (all rounding of these points is far below w). A resample
    with one of the two certified at every threshold, and both limit signs
    (no clamp), has its bucket b, the number of thresholds below gamma,
    with gamma strictly inside (t_{b-1}, t_b), t_{-1} = -1 and t_m = 1. A
    resample whose exact root lies within 2w of a threshold stays
    uncertain.
    """

    thresholds: np.ndarray
    weights: np.ndarray  # names x (4m + 6), described above
    scale: float  # 2 (k + 4) u (1 + 2**-16)
    slack: float  # N 2**-1070

    @classmethod
    def at(cls, terms: _DeltaTerms, thresholds: np.ndarray, total: int) -> "_Ladder | None":
        """The ladder of the matched names' ``terms`` at ``thresholds``, or
        None where the bound above does not hold."""
        k = len(terms.num)
        if (k + 4.0) * _UNIT_ROUNDOFF > 2.0**-20:
            return None
        columns = [
            terms.num / terms.denominators(point)
            for t in thresholds for point in (t - 2.0 * _CERTIFY_WIDTH, t + 2.0 * _CERTIFY_WIDTH)
        ]
        poles = [terms.limit_hi == 0.0, terms.limit_lo == 0.0]
        for limit, pole in zip((terms.limit_hi, terms.limit_lo), poles):
            columns.append(np.where(pole, 0.0, terms.num / np.where(pole, 1.0, limit)))
        signed = np.column_stack(columns)
        weights = np.column_stack([signed, np.abs(signed), *poles])
        scale = 2.0 * (k + 4.0) * _UNIT_ROUNDOFF * (1.0 + 2.0**-16)
        return cls(np.asarray(thresholds, dtype=float), weights, scale, total * 2.0**-1070)

    @classmethod
    def around(cls, counts: np.ndarray, terms: _DeltaTerms, root: float, total: int) -> "_Ladder | None":
        """The ladder at _LADDER_SIGMAS delta-method standard deviations,
        1 / sqrt(sum c w(root)**2), below and above the full target's root,
        keeping the thresholds inside (-1, 1); None at a clamped or neutral
        root, or where :meth:`at` gives None."""
        if not abs(root) < 1.0:
            return None
        weights = terms.num / terms.denominators(root)
        spread = float(np.dot(counts, weights * weights))
        if not spread > 0.0:
            return None
        offsets = _LADDER_SIGMAS / math.sqrt(spread)
        thresholds = np.concatenate((root - offsets[::-1], root + offsets))
        thresholds = thresholds[np.abs(thresholds) < 1.0 - 4.0 * _CERTIFY_WIDTH]
        return cls.at(terms, thresholds, total) if len(thresholds) else None

    def classify(self, counts: np.ndarray) -> np.ndarray:
        """The bucket of each row of ``counts``, a block of resamples over
        the matched names: _UNCERTAIN where a sign is not certified, as
        for an empty row, else the number of thresholds below the row's
        root."""
        n = 2 * len(self.thresholds)
        product = counts @ self.weights
        signed = product[:, : n + 2]
        sure = np.abs(signed) > product[:, n + 2 : 2 * n + 4] * self.scale + self.slack
        pole_hi, pole_lo = product[:, 2 * n + 4 :].T
        below = sure[:, 0:n:2] & (signed[:, 0:n:2] < 0.0)  # gamma < t - w
        above = sure[:, 1:n:2] & (signed[:, 1:n:2] > 0.0)  # gamma > t + w
        certified = (
            (below | above).all(axis=1)
            & ((pole_hi > 0.0) | (sure[:, n] & (signed[:, n] < 0.0)))
            & ((pole_lo > 0.0) | (sure[:, n + 1] & (signed[:, n + 1] > 0.0)))
        )
        buckets = np.count_nonzero(above, axis=1)
        buckets[~certified] = _UNCERTAIN
        return buckets

    def stand_ins(self) -> np.ndarray:
        """A gamma inside each bucket: -1, the midpoints between adjacent
        thresholds, 1."""
        t = self.thresholds
        return np.concatenate(([-1.0], 0.5 * (t[:-1] + t[1:]), [1.0]))


def _percentile_ranks(n: int) -> np.ndarray:
    """The order statistics (0-based) that ``np.percentile`` reads of n
    values at 2.5 and 97.5, with a neighbour on each side against rounding
    in its index arithmetic."""
    ranks = []
    for q in (0.025, 0.975):
        i = math.floor(q * (n - 1))
        ranks.extend(range(max(i - 1, 0), min(i + 3, n)))
    return np.array(ranks)


def _buckets_at_ranks(buckets: np.ndarray, gammas: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Which buckets may hold a resample at a rank of
    :func:`_percentile_ranks`, by bucket index.

    ``buckets`` is each resample's :meth:`_Ladder.classify` result and
    ``gammas`` is exact where it is _UNCERTAIN. Bucket b's values lie
    strictly between t_{b-1} and t_b, so the resamples of lower buckets
    and the exact values at or below t_{b-1} sort before all of them, and
    likewise after; they hold only the ranks left between. The rank of the
    k-th of n non-degenerate values falls in no other bucket, so a bucket
    that cannot hold it may stand in any value inside it: every value of
    such a bucket stays on the same side of the k-th, and the k-th keeps
    its bits.
    """
    n = np.count_nonzero(buckets != _DEGENERATE)
    exact = gammas[buckets == _UNCERTAIN]
    sizes = np.array([np.count_nonzero(buckets == b) for b in range(len(thresholds) + 1)])
    ends = np.cumsum(sizes)
    below = ends - sizes + np.array([0] + [np.count_nonzero(exact <= t) for t in thresholds])
    above = ends[-1] - ends + np.array([np.count_nonzero(exact >= t) for t in thresholds] + [0])
    ranks = _percentile_ranks(n)
    return ((below[:, None] <= ranks) & (ranks <= n - 1 - above[:, None])).any(axis=1)


def _target_probabilities(
    p_female: np.ndarray, gamma: float, gamma_star: float
) -> np.ndarray:
    """Per-name conditional female probabilities inside a group of
    composition ``gamma`` drawn from a reference of imbalance ``gamma_star``."""
    if gamma == 1.0:
        return np.where(p_female > 0.0, 1.0, 0.0)
    if gamma == -1.0:
        return np.where(p_female < 1.0, 0.0, 1.0)
    return _shift_odds(p_female, (1.0 + gamma) / (1.0 - gamma), gamma_star)


@dataclass(frozen=True)
class BootstrapInterval:
    """Percentile interval on beta from multinomial resampling."""

    low: float
    high: float
    repeats: int
    seed: int
    degenerate: int = 0


@dataclass(frozen=True)
class EstimateReport:
    """Everything one estimation run reports.

    ``attributed_female``/``attributed_male`` are real-valued attributed
    individual counts; the ``individuals_*``/``unique_names_*`` fields
    describe how much of the target the reference covered and how much the
    method actually used.
    """

    method: str
    cutoff: float | None
    composition: GenderComposition
    attributed_female: float
    attributed_male: float
    individuals_total: int | float
    individuals_matched: int | float
    individuals_used: int | float
    unique_names_total: int
    unique_names_matched: int
    clamped: bool = False
    bootstrap_interval: BootstrapInterval | None = None

    def to_dict(self) -> dict:
        bootstrap = None if self.bootstrap_interval is None else asdict(self.bootstrap_interval)
        return {
            "method": self.method,
            "cutoff": self.cutoff,
            "alpha": self.composition.alpha,
            "beta": self.composition.beta,
            "gamma": self.composition.gamma,
            "clamped": self.clamped,
            "attributed_female": self.attributed_female,
            "attributed_male": self.attributed_male,
            "coverage": {
                "individuals_total": self.individuals_total,
                "individuals_matched": self.individuals_matched,
                "individuals_used": self.individuals_used,
                "unique_names_total": self.unique_names_total,
                "unique_names_matched": self.unique_names_matched,
            },
            "bootstrap": bootstrap,
        }

    def to_json(self) -> str:
        return dump_json(self.to_dict())


class _Estimate(NamedTuple):
    """One method's result on matched arrays."""

    composition: GenderComposition
    female: float
    male: float
    share: np.ndarray  # the female share the method gave each matched name
    used: np.ndarray | None = None  # mask of the names the method used; None = all
    clamped: bool = False


def estimate_method0(target: TargetList, reference: ReferenceTable) -> EstimateReport:
    """Fractional attribution: every matched individual contributes
    p(g|name) to each gender."""
    return MethodSpec(METHOD_0).run(target, reference)


def estimate_method1(
    target: TargetList, reference: ReferenceTable, p_c: float
) -> EstimateReport:
    """Fractional attribution restricted to names whose larger conditional
    probability reaches ``p_c`` (inclusive). At p_c = 0.5 every matched
    name qualifies and the result coincides with method0."""
    return MethodSpec(METHOD_1, p_c).run(target, reference)


def estimate_method2(
    target: TargetList, reference: ReferenceTable, p_c: float
) -> EstimateReport:
    """Hard assignment: all bearers of a name go to the gender whose
    conditional probability strictly exceeds ``p_c``; other names are
    excluded. Since p_c >= 0.5 the assignment is unique."""
    return MethodSpec(METHOD_2, p_c).run(target, reference)


def solve_ggem(
    target: TargetList,
    reference: ReferenceTable,
    gamma_star: float = 0.0,
) -> EstimateReport:
    """Solve the self-consistency condition for the group composition.

    A log-odds Newton search finds the root, and the returned gamma is
    certified to w = 1e-13: the computed residual is >= 0 at gamma - w and
    <= 0 at gamma + w, for every root and every gamma_star. Endpoints are
    handled through the residual's one-sided limits, and a residual that
    never crosses zero clamps the estimate to gamma = +/-1 (reported via
    ``clamped``). Attributed counts are the real-valued sums of the
    transformed per-name probabilities at the solved gamma.
    """
    return MethodSpec(METHOD_GGEM, gamma_star=gamma_star).run(target, reference)


class PartialContribution(NamedTuple):
    """Composition contributed by names in one |delta| bin.

    ``beta_partial`` is None for an empty bin. ``individuals`` is the
    bin's target count total: an int for an integer target, a float for a
    real-valued one (``0`` or ``0.0`` when the bin is empty).
    """

    low: float
    high: float
    beta_partial: float | None
    individuals: int | float


def default_bin_edges(n_bins: int = 10) -> list[float]:
    """Equal-width |delta| bin edges spanning [0, 1]."""
    if not _is_count(n_bins):
        raise InputError(f"n_bins must be a nonnegative integer, got {n_bins!r}")
    if n_bins < 1:
        raise InputError("n_bins must be at least 1")
    return [i / n_bins for i in range(n_bins + 1)]


def partial_contributions(
    target: TargetList,
    reference: ReferenceTable,
    bin_edges: list[float] | None = None,
    method: str = METHOD_0,
    gamma_star: float = 0.0,
) -> list[PartialContribution]:
    """Split the attributed composition by reference |delta| bins.

    Bins are half-open [lo, hi) except the last, which includes 1. For
    ``method0`` the per-name probability is the raw reference conditional;
    for ``ggem`` it is the transformed probability at the solved gamma of
    the full target.
    """
    if bin_edges is not None and not all(_is_real(e) for e in bin_edges):
        raise InputError(f"bin edges must be real numbers, got {list(bin_edges)!r}")
    edges = default_bin_edges() if bin_edges is None else [float(e) for e in bin_edges]
    if len(edges) < 2 or not all(a < b for a, b in zip(edges, edges[1:])):
        raise InputError("bin edges must be strictly increasing")
    if edges[0] != 0.0 or edges[-1] != 1.0:
        raise InputError("bin edges must span [0, 1]")
    if method not in (METHOD_0, METHOD_GGEM):
        raise InputError(f"partial contributions support method0 or ggem, got {method!r}")
    spec = MethodSpec(method, gamma_star=gamma_star)  # checks gamma_star before matching
    m = _match(target, reference)
    est = spec._apply(m.counts, m.p_female)
    idx = np.searchsorted(np.array(edges), np.abs(2.0 * m.p_female - 1.0), side="right") - 1
    idx = np.minimum(idx, len(edges) - 2)  # |delta| = 1 lands in the last bin
    rows: list[PartialContribution] = []
    for b in range(len(edges) - 1):
        members = np.flatnonzero(idx == b)
        individuals = _total(target.counts.take(m.positions.take(members)))
        beta_partial: float | None = None
        if members.size:
            female = float(np.sum(est.share[members] * m.counts[members]))
            beta_partial = female / float(np.sum(m.counts[members]))
        rows.append(PartialContribution(edges[b], edges[b + 1], beta_partial, individuals))
    return rows


@dataclass(frozen=True)
class MethodSpec:
    """A validated estimator run: method name plus its parameters, checked
    once when built (``gamma_star`` for every method, though only ``ggem``
    reads it). A threshold method's cutoff is stored as the checked float.
    Each method's arithmetic and its report live here and nowhere else."""

    method: str
    cutoff: float | None = None
    gamma_star: float = 0.0

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise InputError(f"unknown method {self.method!r}")
        if self.method in (METHOD_1, METHOD_2):
            if self.cutoff is None:
                raise InputError(f"{self.method} requires a cutoff")
            object.__setattr__(self, "cutoff", _checked("p_c", self.cutoff, 0.5, 1.0))
        elif self.cutoff is not None:
            raise InputError(f"{self.method} takes no cutoff")
        _check_gamma_star(self.gamma_star)

    @classmethod
    def parse(cls, text: str, gamma_star: float = 0.0) -> "MethodSpec":
        """Parse compact notation: ``m0``, ``m1:0.9``, ``method2:0.7``, ``ggem``."""
        name, _, cutoff_text = text.strip().partition(":")
        method = _METHOD_ALIASES.get(name.lower())
        if method is None:
            raise InputError(f"unknown method {name!r}")
        cutoff = None
        if cutoff_text:
            try:
                cutoff = float(cutoff_text)
            except ValueError:
                raise InputError(f"bad cutoff {cutoff_text!r} in method spec {text!r}")
        spec = cls(method, cutoff, gamma_star)  # checks gamma_star before the other methods drop it
        return spec if method == METHOD_GGEM else replace(spec, gamma_star=0.0)

    def run(self, target: TargetList, reference: ReferenceTable) -> EstimateReport:
        """This method's report on ``target``, matched against ``reference``."""
        m = _match(target, reference)
        est = self._apply(m.counts, m.p_female)
        counts = target.counts.take(m.positions)
        used = counts if est.used is None else counts[est.used]
        return EstimateReport(
            method=self.method,
            cutoff=self.cutoff,
            composition=est.composition,
            attributed_female=est.female,
            attributed_male=est.male,
            individuals_total=target.total_individuals,
            individuals_matched=_total(counts),
            individuals_used=_total(used),
            unique_names_total=len(target),
            unique_names_matched=len(m.positions),
            clamped=est.clamped,
        )

    def _apply(self, counts: np.ndarray, p_female: np.ndarray) -> _Estimate:
        """This method's arithmetic on matched arrays in sorted-key order,
        without a report. ``counts`` holds positive entries only. Each
        method gives every matched name a female share and picks the names
        it uses; one rule then attributes the used counts by those shares.
        Raises :class:`EstimationError` when no name passes the cutoff."""
        used, share = None, p_female  # method0: p on every name
        if self.method == METHOD_GGEM:  # p reweighted at the solved composition
            gamma, clamped = _solve_gamma(counts, _delta_terms(2.0 * p_female - 1.0, self.gamma_star))
            share = _target_probabilities(p_female, gamma, self.gamma_star)
        elif self.method == METHOD_1:  # p on confident names only
            used = np.maximum(p_female, 1.0 - p_female) >= self.cutoff
        elif self.method == METHOD_2:  # a hard label, 1 or 0, on confident names only
            share = p_female > self.cutoff
            used = share | ((1.0 - p_female) > self.cutoff)
        if used is not None and not np.any(used):
            raise EstimationError(f"no names pass cutoff p_c={self.cutoff:g}")
        weights = counts if used is None else np.where(used, counts, 0.0)
        female = float(np.sum(share * weights))
        male = float(np.sum((1.0 - share) * weights))
        if self.method == METHOD_GGEM:
            return _Estimate(GenderComposition.from_gamma(gamma), female, male, share, None, clamped)
        return _Estimate(GenderComposition.from_beta(female / (female + male)), female, male, share, used)

    def label(self) -> str:
        if self.cutoff is None:
            return self.method
        return f"{self.method}:{self.cutoff:g}"


def bootstrap_interval(
    target: TargetList,
    reference: ReferenceTable,
    method_spec: MethodSpec,
    repeats: int = 1000,
    seed: int = 0,
) -> BootstrapInterval:
    """2.5/97.5 percentile interval on beta from resampled targets.

    Each repeat redraws the target's individuals (one multinomial over the
    name counts with the same total) and re-runs the estimator; the random
    stream of repeat ``r`` is ``default_rng([seed, r])``, so any subset of
    repeats is reproducible. The target is matched against the reference
    once: a resample is a count vector over the matched names, and names
    it did not draw are dropped. Every method's resamples run through one
    loop. A degenerate resample, one that draws no matched name or none
    past the cutoff, is counted and skipped, never fatal.

    ``draw(r)`` gives repeat r's counts over the matched names, one row of
    a block of at most _CHUNK_COUNTS counts, and ``solve`` a resample's
    value: ggem's gamma or a baseline's beta, NaN for a degenerate one (an
    empty row, or no drawn name past the cutoff).

    Without a ladder every other resample is solved from its block. Only
    ggem builds one, around the full target's gamma; there is none at a
    clamped or neutral root. The :class:`_Ladder` classifies each block
    with one matrix product, and the uncertain resamples are solved from
    the block. Of the certified ones only those in buckets that may hold a
    rank ``np.percentile`` reads (:func:`_buckets_at_ranks`) are drawn
    again and solved; the rest stand in their bucket's midpoint, which
    keeps the rank order. So the interval is that of solving every
    resample.
    """
    if not _is_count(repeats) or repeats < 100:
        raise InputError(f"bootstrap repeats must be an integer of at least 100, got {repeats!r}")
    if not _is_count(seed):
        raise InputError(f"seed must be a nonnegative integer, got {seed!r}")
    if target.counts.dtype.kind != "i":
        raise InputError("bootstrap requires integer target counts")
    # numpy's multinomial draws take the total as a C long.
    if target.total_individuals >= 2**63:
        raise InputError(f"bootstrap requires fewer than 2**63 target individuals, got {target.total_individuals}")
    try:
        m = _match(target, reference)
    except EstimationError:  # no name matches, so no resample can
        raise EstimationError("every bootstrap resample was degenerate") from None
    total = target.total_individuals
    pvals = target.counts / total

    def draw(r: int) -> np.ndarray:
        # A resample changes counts, never which names match: gather the
        # drawn names from the matched ones by position.
        return np.random.default_rng([seed, r]).multinomial(total, pvals).take(m.positions)

    ladder = None
    if method_spec.method == METHOD_GGEM:
        terms = _delta_terms(2.0 * m.p_female - 1.0, method_spec.gamma_star)
        ladder = _Ladder.around(m.counts, terms, _solve_gamma(m.counts, terms)[0], total)

        def solve(sample: np.ndarray) -> float:
            drawn = np.flatnonzero(sample)
            # The interval reads beta only: no attributed counts.
            return _solve_gamma(sample.take(drawn).astype(float), terms.take(drawn))[0]
    else:
        def solve(sample: np.ndarray) -> float:
            drawn = np.flatnonzero(sample)
            try:
                return method_spec._apply(sample.take(drawn).astype(float), m.p_female.take(drawn)).composition.beta
            except EstimationError:  # no drawn name passes the cutoff
                return math.nan

    values = np.full(repeats, math.nan)
    buckets = np.empty(repeats, dtype=np.intp)
    rows = max(1, _CHUNK_COUNTS // len(m.counts))
    for first in range(0, repeats, rows):
        block = np.empty((min(rows, repeats - first), len(m.counts)))
        for i in range(len(block)):
            block[i] = draw(first + i)
        kinds = np.full(len(block), _UNCERTAIN) if ladder is None else ladder.classify(block)
        kinds[~block.any(axis=1)] = _DEGENERATE
        buckets[first : first + len(block)] = kinds
        for i in np.flatnonzero(kinds == _UNCERTAIN):
            values[first + i] = solve(block[i])
    solved = np.count_nonzero(buckets == _UNCERTAIN)
    if ladder is not None:
        certified = np.flatnonzero(buckets >= 0)
        values[certified] = ladder.stand_ins().take(buckets.take(certified))
        redrawn = certified[_buckets_at_ranks(buckets, values, ladder.thresholds)[buckets.take(certified)]]
        for r in redrawn:
            values[r] = solve(draw(r))
        solved += len(redrawn)
    kept = values[~np.isnan(values)]
    degenerate = repeats - len(kept)
    logger.debug(
        "%s bootstrap: %d resamples, %d degenerate, %d solved exactly", method_spec.label(), repeats, degenerate, solved
    )
    if not len(kept):
        raise EstimationError("every bootstrap resample was degenerate")
    if method_spec.method == METHOD_GGEM:
        kept = (1.0 + kept) / 2.0  # GenderComposition.from_gamma's beta
    low, high = np.percentile(kept, [2.5, 97.5])
    return BootstrapInterval(float(low), float(high), repeats, seed, degenerate)


def with_bootstrap(report: EstimateReport, interval: BootstrapInterval) -> EstimateReport:
    """Return a copy of ``report`` carrying a bootstrap interval."""
    return replace(report, bootstrap_interval=interval)
