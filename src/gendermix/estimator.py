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
root is unique. The returned gamma is exactly the one a bisection to 1e-12
returns; a Newton search in log-odds x = log(alpha) locates the root first,
so the bisection evaluates the residual only close to it. When the residual
never crosses zero the estimate clamps to gamma = +/-1. ``gamma_star`` is
the overall imbalance of the reference population itself (0 for a balanced
one).

Compositions are expressed interchangeably as a female/male ratio alpha in
[0, inf], a female fraction beta in [0, 1] or an imbalance
gamma = 2*beta - 1 in [-1, 1].
"""

import math
from dataclasses import asdict, dataclass, replace
from typing import NamedTuple

import numpy as np

from ._fmt import dump_json
from .errors import EstimationError, InputError
from .reference import ReferenceTable, TargetList, _is_count, _total

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

# Bisection brackets start this far inside the open interval (-1, 1).
_BRACKET_MARGIN = 1e-9
# Default absolute bisection tolerance on gamma.
_TOL = 1e-12
# The standard bracket in log-odds x = log(alpha), where the Newton search runs.
_X_BRACKET = 2.0 * math.atanh(1.0 - _BRACKET_MARGIN)
# The Newton search stops once a step in x is this small, or after this many
# passes.
_NEWTON_STEP = 1e-8
_NEWTON_PASSES = 12
# The residual is probed this far below and above the Newton root; each
# probe's sign certifies one end of the bracket around the root.
_CERTIFY_WIDTH = 1e-13
# Up to this |gamma_star| every computed residual denominator stays positive
# across the standard bracket (it is at least 1e-9 * (1 - |gamma_star|),
# far above the rounding error of about 1e-15), which the inferred residual
# signs rely on. Beyond it the solve takes the full bisection.
_FAST_GAMMA_STAR = 0.999


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
        if math.isnan(alpha) or alpha < 0.0:
            raise InputError(f"alpha must be in [0, inf], got {alpha!r}")
        if math.isinf(alpha):
            return cls(1.0, 1.0, math.inf)
        return cls((alpha - 1.0) / (alpha + 1.0), alpha / (1.0 + alpha), alpha)


def _checked(label: str, value: float, lo: float, hi: float) -> float:
    value = float(value)
    if math.isnan(value) or not lo <= value <= hi:
        raise InputError(f"{label} must be in [{lo}, {hi}], got {value!r}")
    return value


def _check_gamma_star(gamma_star: float) -> None:
    if not -1.0 < gamma_star < 1.0:
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
        if math.isnan(self.eta) or math.isinf(self.eta) or self.eta <= 0.0:
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
    deltas: np.ndarray


def _match(target: TargetList, reference: ReferenceTable) -> _Matched:
    return _match_rows(reference.rows_of(target.keys), target.counts, reference)


def _match_rows(rows: np.ndarray, counts: np.ndarray, reference: ReferenceTable) -> _Matched:
    """The matched arrays of sorted target names whose reference rows
    (``rows_of``, -1 where absent) and counts are given."""
    positions = np.flatnonzero(rows >= 0)
    if not positions.size:
        raise EstimationError("no target name appears in the reference")
    p_female = reference.p_female_of(rows.take(positions))
    return _Matched(positions, counts.take(positions).astype(float), p_female, 2.0 * p_female - 1.0)


class _DeltaTerms(NamedTuple):
    """The ggem solver's per-name terms that depend only on the matched
    deltas and ``gamma_star``: built once per matched target and gathered
    row by row for each bootstrap resample. Only the products with the
    counts are formed per solve."""

    gamma_star: float
    num: np.ndarray  # delta - gamma_star
    base: np.ndarray  # 1 - gamma_star * delta
    # Denominators of the residual's limits at gamma -> 1 and -1, computed
    # as written. limit_hi is 0 exactly at a pole, delta = -1: 1 + delta is
    # 0 or at least 2**-53 and 1 - gamma_star at least 2**-53, so their
    # product is 0 or at least 2**-106, which does not round to 0. Likewise
    # limit_lo at delta = +1.
    limit_hi: np.ndarray  # (1 + delta)(1 - gamma_star)
    limit_lo: np.ndarray  # (1 - delta)(1 + gamma_star)

    def take(self, rows: np.ndarray) -> "_DeltaTerms":
        """The terms of the names at ``rows``, in that order."""
        return _DeltaTerms(
            self.gamma_star, self.num.take(rows), self.base.take(rows),
            self.limit_hi.take(rows), self.limit_lo.take(rows),
        )


def _num_base(deltas: np.ndarray, gamma_star: float) -> tuple[np.ndarray, np.ndarray]:
    """num = delta - gamma_star and base = 1 - gamma_star * delta, the only
    terms the residual itself reads."""
    return deltas - gamma_star, 1.0 - gamma_star * deltas


def _delta_terms(deltas: np.ndarray, gamma_star: float) -> _DeltaTerms:
    num, base = _num_base(deltas, gamma_star)
    return _DeltaTerms(
        gamma_star, num, base, (1.0 + deltas) * (1.0 - gamma_star), (1.0 - deltas) * (1.0 + gamma_star)
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
    delta = gamma_star, adding such names never moves the root.
    """
    if not -1.0 < gamma < 1.0:
        raise InputError(f"gamma must be strictly inside (-1, 1), got {gamma!r}")
    _check_gamma_star(gamma_star)
    m = _match(target, reference)
    num, base = _num_base(m.deltas, gamma_star)
    return _residual_sum(m.counts * num, num, base, gamma)


def _residual_sum(
    weighted: np.ndarray,
    num: np.ndarray,
    base: np.ndarray,
    gamma: float,
    out: np.ndarray | None = None,
) -> float:
    """The residual, given num = delta - gamma_star, weighted = counts * num
    and base = 1 - gamma_star * delta; ``out`` is an optional scratch buffer
    of the same shape that receives the per-name terms."""
    out = np.multiply(num, gamma, out=out)
    out += base
    np.divide(weighted, out, out=out)
    return float(out.sum())


def _log_odds_pass(
    x: float,
    female_w: np.ndarray,
    male_w: np.ndarray,
    spread_w: np.ndarray,
    share_f: np.ndarray,
    share_m: np.ndarray,
    recip: np.ndarray,
) -> tuple[float, float]:
    """One Newton pass on the self-consistency condition in log-odds.

    With alpha = e^x, a name's target probability is
    p_T = sigma(x + logit p~) = alpha share_f / (alpha share_f + share_m),
    where share_f : share_m = p~ : q~ (p~ the debiased conditional). The
    pass evaluates m(x) = logit(F / N) - x with F = sum N p_T, M = N - F
    and V = sum N p_T (1 - p_T), from the weights female_w = N share_f,
    male_w = N share_m and spread_w = N share_f share_m; m has the sign and
    the root of h(x) = F - N sigma(x) and of the residual, and its slope
    V/F + V/M - 1 lies in [-1, 0). Returns m and the Newton step
    (NaN where the computed slope is not negative). ``recip`` is scratch.
    """
    alpha = math.exp(x)
    np.multiply(share_f, alpha, out=recip)
    recip += share_m
    np.reciprocal(recip, out=recip)
    female = alpha * float(np.dot(female_w, recip))
    male = float(np.dot(male_w, recip))
    np.multiply(recip, recip, out=recip)
    spread = alpha * float(np.dot(spread_w, recip))
    if not (female > 0.0 and male > 0.0):
        return math.nan, math.nan
    m = math.log(female / male) - x
    slope = spread / female + spread / male - 1.0
    return m, (-m / slope if slope < 0.0 else math.nan)


def _newton_root(
    counts: np.ndarray, terms: _DeltaTerms, start: float | None, recip: np.ndarray
) -> float:
    """Approximate residual root from a bracketed, safeguarded Newton search
    in log-odds x = log(alpha) over the standard bracket, as gamma = tanh(x/2).

    ``start`` is a guess at gamma; without one inside the bracket the search
    starts at x = 0. A step that leaves the bracket bisects instead.
    ``recip`` is scratch of the counts' shape.
    """
    share_f, share_m = terms.base + terms.num, terms.base - terms.num
    female_w = counts * share_f
    male_w = counts * share_m
    spread_w = female_w * share_m
    x_lo, x_hi = -_X_BRACKET, _X_BRACKET
    x = 0.0
    if start is not None and abs(start) < 1.0 - _BRACKET_MARGIN:
        x = 2.0 * math.atanh(start)
    for _ in range(_NEWTON_PASSES):
        m, step = _log_odds_pass(x, female_w, male_w, spread_w, share_f, share_m, recip)
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
    return math.tanh(0.5 * x)


def _solve_gamma(
    counts: np.ndarray,
    terms: _DeltaTerms,
    tol: float,
    start: float | None = None,
) -> tuple[float, bool]:
    """Root of the residual on [-1, 1]; returns (gamma, clamped).

    The result is the bisection's to ``tol`` from the standard bracket,
    bit for bit. A Newton search in log-odds (from ``start``, a guess at
    gamma that changes only the speed) first locates the root, and the
    residual is probed at root -/+ _CERTIFY_WIDTH: a probe that reads
    positive becomes c_lo, one that reads negative c_hi. The computed
    residual is monotone in gamma (each term is a chain of correctly
    rounded, monotone operations on a positive denominator, summed in a
    fixed order), so one sign rule serves every point the solve reads, the
    standard bracket's ends included: at or below c_lo the residual is
    positive, at or above c_hi negative, and anywhere else it is evaluated.
    An end no probe certifies stays infinite, and past _FAST_GAMMA_STAR
    nothing is probed, so every point is evaluated. ``terms`` are the
    matched names' :class:`_DeltaTerms`, in the order of ``counts``.
    """
    if not terms.num.any():
        # All matched names sit exactly at the reference imbalance: the
        # residual is identically zero and gamma_star is the natural root.
        return terms.gamma_star, False
    num, base = terms.num, terms.base
    weighted = counts * num
    buffer = np.empty_like(num)

    def f(gamma: float) -> float:
        return _residual_sum(weighted, num, base, gamma, buffer)

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

    lo = -(1.0 - _BRACKET_MARGIN)
    hi = 1.0 - _BRACKET_MARGIN
    c_lo, c_hi = -math.inf, math.inf
    if abs(terms.gamma_star) <= _FAST_GAMMA_STAR:
        root = _newton_root(counts, terms, start, buffer)
        for point in (root - _CERTIFY_WIDTH, root + _CERTIFY_WIDTH):
            if c_lo < point < c_hi and lo <= point <= hi:
                value = f(point)
                if value > 0.0:
                    c_lo = point
                elif value < 0.0:
                    c_hi = point
    # A certified end lies inside the standard bracket, so the standard end
    # beyond it reads its sign unevaluated and holds no root and no creep.
    flo, fhi = (1.0 if x <= c_lo else -1.0 if x >= c_hi else f(x) for x in (lo, hi))
    if flo == 0.0:
        return lo, False
    if fhi == 0.0:
        return hi, False
    if flo < 0.0 or fhi > 0.0:
        # The root lies between the standard bracket and the pole on the
        # side (-1 or +1) whose end has the wrong sign: creep toward that
        # pole until the sign flips, as the limit there says it will.
        # ``edge`` is the last point that still has the wrong sign.
        side = -1.0 if flo < 0.0 else 1.0
        edge, t = side * hi, _BRACKET_MARGIN
        while t > 4e-17:
            t /= 4.0
            point = side * (1.0 - t)
            if side * f(point) < 0.0:
                break
            edge = point
        else:
            return edge, False
        lo, hi = min(edge, point), max(edge, point)

    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        # The sign rule again, written inline to spare a call per midpoint.
        fm = 1.0 if mid <= c_lo else -1.0 if mid >= c_hi else f(mid)
        if fm > 0.0:
            lo = mid
        elif fm < 0.0:
            hi = mid
        else:
            return mid, False
    return 0.5 * (lo + hi), False


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
    tol: float = _TOL,
) -> EstimateReport:
    """Solve the self-consistency condition for the group composition.

    The result is the bisection's on gamma with absolute tolerance ``tol``,
    bit for bit; a log-odds Newton search locates the root first, so the
    bisection evaluates the residual only near it. Endpoints are handled
    through the residual's one-sided limits, and a residual that never
    crosses zero clamps the estimate to gamma = +/-1 (reported via
    ``clamped``). Attributed counts are the real-valued sums of the
    transformed per-name probabilities at the solved gamma.
    """
    spec = MethodSpec(METHOD_GGEM, gamma_star=gamma_star)
    if not tol > 0.0:
        raise InputError(f"tol must be positive, got {tol!r}")
    return spec._report(target, _match(target, reference), tol)


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
    edges = default_bin_edges() if bin_edges is None else [float(e) for e in bin_edges]
    if len(edges) < 2 or any(b <= a for a, b in zip(edges, edges[1:])):
        raise InputError("bin edges must be strictly increasing")
    if edges[0] != 0.0 or edges[-1] != 1.0:
        raise InputError("bin edges must span [0, 1]")
    if method not in (METHOD_0, METHOD_GGEM):
        raise InputError(f"partial contributions support method0 or ggem, got {method!r}")
    spec = MethodSpec(method, gamma_star=gamma_star)  # checks gamma_star before matching
    return _split_by_inclination(spec, target, reference, edges)[1]


def _split_by_inclination(
    spec: "MethodSpec", target: TargetList, reference: ReferenceTable, edges: list[float]
) -> tuple[float, list[PartialContribution]]:
    """The global beta of a method0 or ggem run and its split by |delta|
    bins (validated ``edges``), from one match and at most one solve."""
    m = _match(target, reference)
    est = spec._apply(m.counts, m.p_female, m.deltas)
    probs = m.p_female
    if spec.method == METHOD_GGEM:
        probs = _target_probabilities(m.p_female, est.composition.gamma, spec.gamma_star)
    idx = np.searchsorted(np.array(edges), np.abs(m.deltas), side="right") - 1
    idx = np.minimum(idx, len(edges) - 2)  # |delta| = 1 lands in the last bin
    rows: list[PartialContribution] = []
    for b in range(len(edges) - 1):
        members = np.flatnonzero(idx == b)
        individuals = _total(target.counts.take(m.positions.take(members)))
        beta_partial: float | None = None
        if members.size:
            female = float(np.sum(probs[members] * m.counts[members]))
            beta_partial = female / float(np.sum(m.counts[members]))
        rows.append(PartialContribution(edges[b], edges[b + 1], beta_partial, individuals))
    return est.composition.beta, rows


@dataclass(frozen=True)
class MethodSpec:
    """A validated estimator run: method name plus its parameters, checked
    once when built (``gamma_star`` for ``ggem`` only, the one method that
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
        if self.method == METHOD_GGEM:
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
        return cls(method, cutoff, gamma_star if method == METHOD_GGEM else 0.0)

    def run(self, target: TargetList, reference: ReferenceTable) -> EstimateReport:
        return self._report(target, _match(target, reference))

    def _report(self, target: TargetList, m: _Matched, tol: float = _TOL) -> EstimateReport:
        """This method's report on ``target``, whose matched names are ``m``."""
        est = self._apply(m.counts, m.p_female, m.deltas, tol)
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

    def _apply(
        self, counts: np.ndarray, p_female: np.ndarray, deltas: np.ndarray, tol: float = _TOL
    ) -> _Estimate:
        """This method's arithmetic on matched arrays in sorted-key order,
        without a report. ``counts`` holds positive entries only. Raises
        :class:`EstimationError` when no name passes the cutoff."""
        if self.method == METHOD_GGEM:
            gamma, clamped = _solve_gamma(counts, _delta_terms(deltas, self.gamma_star), tol)
            p_target = _target_probabilities(p_female, gamma, self.gamma_star)
            female = float(np.sum(p_target * counts))
            male = float(np.sum((1.0 - p_target) * counts))
            return _Estimate(GenderComposition.from_gamma(gamma), female, male, None, clamped)
        used = None
        if self.method == METHOD_0:
            female = float(np.sum(p_female * counts))
            male = float(np.sum((1.0 - p_female) * counts))
        elif self.method == METHOD_1:
            used = np.maximum(p_female, 1.0 - p_female) >= self.cutoff
            if not np.any(used):
                raise EstimationError(f"no names pass cutoff p_c={self.cutoff:g}")
            female = float(np.sum(np.where(used, p_female * counts, 0.0)))
            male = float(np.sum(np.where(used, (1.0 - p_female) * counts, 0.0)))
        else:
            female_mask = p_female > self.cutoff
            male_mask = (1.0 - p_female) > self.cutoff
            used = female_mask | male_mask
            if not np.any(used):
                raise EstimationError(f"no names pass cutoff p_c={self.cutoff:g}")
            female = float(np.sum(np.where(female_mask, counts, 0.0)))
            male = float(np.sum(np.where(male_mask, counts, 0.0)))
        return _Estimate(GenderComposition.from_beta(female / (female + male)), female, male, used)

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
    it did not draw are dropped. Degenerate resamples, where the estimator
    has no usable names, are counted and skipped, never fatal.
    """
    _check_bootstrap(target, repeats, seed)
    try:
        m = _match(target, reference)
    except EstimationError:  # no name matches, so no resample can
        raise EstimationError("every bootstrap resample was degenerate") from None
    return _resample(target, m, method_spec, repeats, seed)


def _estimate_with_bootstrap(
    method_spec: MethodSpec, target: TargetList, reference: ReferenceTable, repeats: int, seed: int
) -> EstimateReport:
    """``method_spec.run`` carrying ``bootstrap_interval``, from one match
    and one solve of the full target; errors come in the same order."""
    m = _match(target, reference)
    report = method_spec._report(target, m)
    _check_bootstrap(target, repeats, seed)
    return with_bootstrap(report, _resample(target, m, method_spec, repeats, seed, report.composition.gamma))


def _check_bootstrap(target: TargetList, repeats: int, seed: int) -> None:
    if not _is_count(repeats) or repeats < 100:
        raise InputError(f"bootstrap repeats must be an integer of at least 100, got {repeats!r}")
    if not _is_count(seed):
        raise InputError(f"seed must be a nonnegative integer, got {seed!r}")
    if target.counts.dtype.kind != "i":
        raise InputError("bootstrap requires integer target counts")


def _resample(
    target: TargetList, m: _Matched, method_spec: MethodSpec, repeats: int, seed: int,
    start: float | None = None,
) -> BootstrapInterval:
    """The bootstrap loop on the target's matched names ``m``. A ggem
    resample's solve starts at ``start``, the full target's root, which is
    solved here when not given."""
    total = target.total_individuals
    pvals = target.counts / total
    ggem = method_spec.method == METHOD_GGEM
    if ggem:
        terms = _delta_terms(m.deltas, method_spec.gamma_star)
        if start is None:
            # Resamples scatter around the full target's root: start there.
            start, _ = _solve_gamma(m.counts, terms, _TOL)
    betas: list[float] = []
    degenerate = 0
    for r in range(repeats):
        rng = np.random.default_rng([seed, r])
        # A resample changes counts, never which names match: gather the
        # drawn names from the matched ones by position.
        sample = rng.multinomial(total, pvals).take(m.positions)
        drawn = np.flatnonzero(sample)
        if not drawn.size:  # no drawn name is in the reference
            degenerate += 1
            continue
        drawn_counts = sample.take(drawn).astype(float)
        if ggem:
            # The interval reads beta only: no attributed counts.
            gamma, _ = _solve_gamma(drawn_counts, terms.take(drawn), _TOL, start)
            betas.append(GenderComposition.from_gamma(gamma).beta)
            continue
        try:
            est = method_spec._apply(drawn_counts, m.p_female.take(drawn), m.deltas.take(drawn))
        except EstimationError:  # no drawn name passes the cutoff
            degenerate += 1
            continue
        betas.append(est.composition.beta)
    if not betas:
        raise EstimationError("every bootstrap resample was degenerate")
    low, high = np.percentile(betas, [2.5, 97.5])
    return BootstrapInterval(float(low), float(high), repeats, seed, degenerate)


def with_bootstrap(report: EstimateReport, interval: BootstrapInterval) -> EstimateReport:
    """Return a copy of ``report`` carrying a bootstrap interval."""
    return replace(report, bootstrap_interval=interval)
