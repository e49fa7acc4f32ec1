"""Correctness gates: program outputs against the generator's truth.

Every gate returns a list of failure messages, empty when the output is
right. Gates take plain numbers and dicts, never program objects, so a
refactor of the program's types leaves them untouched.
"""

import math

# A pooled ggem mean may sit this many standard errors from the truth.
# With at least 20 repeats per grid point, a false alarm over 52 points
# has odds of about 1 in 10^4.
GGEM_Z = 7.0


def pool(rows) -> dict[tuple[float, str], tuple[int, float, float]]:
    """Pool per-batch sweep cells into ``(n, mean, sd)`` per (beta0, method).

    ``rows`` holds ``(beta0, method, n, mean, sd)`` with ``n`` the number
    of repeats that gave an estimate; the pooled figures are those of one
    sweep over all batches' repeats.
    """
    sums: dict[tuple[float, str], list[float]] = {}
    for beta0, method, n, mean, sd in rows:
        if n == 0:
            continue
        slot = sums.setdefault((beta0, method), [0, 0.0, 0.0])
        slot[0] += n
        slot[1] += n * mean
        slot[2] += (n - 1) * sd * sd + n * mean * mean
    out = {}
    for key, (n, total, squares) in sums.items():
        mean = total / n
        var = max(squares - n * mean * mean, 0.0) / (n - 1) if n > 1 else 0.0
        out[key] = (int(n), mean, math.sqrt(var))
    return out


def finite_cells(rows, method: str, repeats: int) -> list[str]:
    """Every repeat of ``method`` gave an estimate and the mean is finite.
    ``rows`` holds ``(beta0, method, estimates, mean, sd)``."""
    failures = []
    for beta0, name, estimates, mean, sd in rows:
        if name != method:
            continue
        if estimates < repeats:
            failures.append(f"{method} failed {repeats - estimates}/{repeats} repeats at beta0={beta0}")
        elif not math.isfinite(mean):
            failures.append(f"{method} mean is {mean} at beta0={beta0}")
    return failures


def ggem_unbiased(pooled, grid, method: str = "ggem", min_repeats: int = 20) -> list[str]:
    """At every grid point the pooled ggem mean is within GGEM_Z standard
    errors of the true composition."""
    failures = []
    for beta0 in grid:
        if (beta0, method) not in pooled:
            failures.append(f"{method}: no estimates at beta0={beta0}")
            continue
        n, mean, sd = pooled[(beta0, method)]
        if n < min_repeats:
            failures.append(f"{method}: {n} repeats at beta0={beta0}, need {min_repeats}")
            continue
        tolerance = GGEM_Z * sd / math.sqrt(n)
        if not abs(mean - beta0) <= tolerance:
            failures.append(
                f"{method}: mean {mean:.6f} at beta0={beta0} is off by more than {tolerance:.6f}"
            )
    return failures


def baseline_biased(pooled, beta0: float, method: str, min_error: float) -> list[str]:
    """A naive baseline overestimates a small minority by at least
    ``min_error``: the bias ggem exists to remove."""
    if (beta0, method) not in pooled:
        return [f"{method}: no estimates at beta0={beta0}"]
    mean = pooled[(beta0, method)][1]
    if not mean - beta0 >= min_error:
        return [f"{method}: error {mean - beta0:.6f} at beta0={beta0}, expected >= {min_error}"]
    return []


def collapses_to_half(pooled, method: str, min_distance: float, max_ratio: float) -> list[str]:
    """Far from balance, ``method`` moves less than ``max_ratio`` of the
    way from 0.5 toward the truth (letter buckets pool inclinations)."""
    failures = []
    for (beta0, name), (n, mean, sd) in sorted(pooled.items()):
        if name != method or abs(beta0 - 0.5) < min_distance:
            continue
        if not abs(mean - 0.5) <= max_ratio * abs(beta0 - 0.5):
            failures.append(f"{method}: mean {mean:.4f} at beta0={beta0} did not collapse toward 0.5")
    return failures


def interval_covers(beta_hat: float, low: float, high: float, truth: float, matched: int) -> list[str]:
    """The estimate and its bootstrap interval are finite and in [0, 1],
    and the estimate is within one interval width (about four standard
    errors) of the truth. The width never counts as less than one person
    in ``matched``."""
    values = (beta_hat, low, high)
    if not all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values) or low > high:
        return [f"bad estimate {beta_hat} or interval [{low}, {high}]"]
    width = max(high - low, 1.0 / matched)
    if not abs(beta_hat - truth) <= width:
        return [f"estimate {beta_hat:.6f} is {abs(beta_hat - truth):.6f} from truth {truth:.6f}, width {width:.6f}"]
    return []


def same_table(actual: dict, expected: dict, what: str) -> list[str]:
    """Exactly the expected keys with exactly the expected counts."""
    failures = []
    missing = sorted(set(expected) - set(actual))
    extra = sorted(set(actual) - set(expected))
    if missing:
        failures.append(f"{what}: {len(missing)} key(s) missing, e.g. {missing[:3]}")
    if extra:
        failures.append(f"{what}: {len(extra)} unexpected key(s), e.g. {extra[:3]}")
    wrong = sorted(k for k in set(actual) & set(expected) if tuple(actual[k]) != tuple(expected[k]))
    if wrong:
        k = wrong[0]
        failures.append(
            f"{what}: {len(wrong)} key(s) with wrong counts, e.g. {k!r} {tuple(actual[k])} != {tuple(expected[k])}"
        )
    return failures


def letters_conserve(letters: dict, filtered_people: int, skipped_people: int) -> list[str]:
    """Letter buckets plus the people skipped for having no initial letter
    add up to the filtered table."""
    bucketed = sum(f + m for f, m in letters.values())
    if bucketed + skipped_people != filtered_people:
        return [f"letters: {bucketed} bucketed + {skipped_people} skipped != {filtered_people} people"]
    return []
