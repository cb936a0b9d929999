"""Closed-form sample-complexity bounds for hypergraph recovery, and the log-log fit of a sweep.

Logarithms are natural logs throughout. Only :func:`fit_scaling` needs numpy,
and it imports it itself, so the bounds load without it.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from .core import read_text
from .errors import HypothesisViolated, InvalidForLogFit, ParseError


@dataclass(frozen=True)
class BoundsInput:
    """Problem constants: edge count, range ratio, path bound, masking constants, targets."""

    m: int
    kappa: float
    L: int
    c_pi: float
    C_pi: float
    epsilon: float
    delta: float

    def __post_init__(self):
        if not 1 <= self.m < math.inf:
            raise ValueError(f"m must be finite and >= 1, got {self.m}")
        if not 1 <= self.kappa < math.inf:
            raise ValueError(f"kappa must be finite and >= 1, got {self.kappa}")
        if not 1 <= self.L < math.inf:
            raise ValueError(f"L must be finite and >= 1, got {self.L}")
        if not 0 < self.c_pi <= 1:
            raise ValueError(f"c_pi must lie in (0, 1], got {self.c_pi}")
        if not 1 <= self.C_pi < math.inf:
            raise ValueError(f"C_pi must be finite and >= 1, got {self.C_pi}")
        if not 0 < self.epsilon < 1:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")


def lower_bound_risk(m: int, n_samples: int) -> float:
    """Minimax reconstruction-error floor for m hyperedges and n_samples draws."""
    if n_samples < m:
        raise HypothesisViolated(f"the bound requires N >= m, got N={n_samples} < m={m}")
    return math.sqrt(m / n_samples) / 16.0


def _finite(name: str, formula) -> float:
    """``formula()``, or a ``ValueError`` naming the bound when it overflows, divides by 0 or is not finite."""
    try:
        value = formula()
    except (OverflowError, ZeroDivisionError):
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{name} is out of floating-point range for these inputs")
    return value


def mm_sample_bounds(b: BoundsInput) -> tuple[int, int]:
    """Sufficient (K, N) thresholds for masked-modeling recovery at (epsilon, delta)."""
    k_min = _finite("K_min", lambda: (
        2**14
        * b.m**2
        * b.kappa**2
        * b.L**2
        / (b.c_pi**2 * b.epsilon**2)
        * math.log(6 * b.m * b.C_pi / b.delta)
    ))
    n_min = _finite("N_min", lambda: max(
        2 * b.m * b.kappa / b.c_pi * math.log(3 * b.m * b.C_pi / b.delta),
        8 * b.m / b.epsilon**2 * math.log(6 * b.m / b.delta),
    ))
    return math.ceil(k_min), math.ceil(n_min)


def lemma_rr_bounds(m0: int, kappa0: float) -> tuple[float, float]:
    """Extremes any m0-point distribution with range ratio kappa0 must respect.

    Returns (floor of the minimum probability, ceiling of the maximum).
    """
    if not 1 <= m0 < math.inf:
        raise ValueError(f"m0 must be finite and >= 1, got {m0}")
    if not 1 <= kappa0 < math.inf:
        raise ValueError(f"kappa0 must be finite and >= 1, got {kappa0}")
    return (
        _finite("weight_min_floor", lambda: 1.0 / (m0 * kappa0)),
        _finite("weight_max_ceiling", lambda: kappa0 / (m0 + kappa0 - 1.0)),
    )


def load_csv(path: str | Path) -> list[dict]:
    reader = csv.DictReader(io.StringIO(read_text(path)))
    try:
        return list(reader)
    except csv.Error as exc:
        raise ParseError(reader.reader.line_num, str(exc)) from None


def fit_scaling(rows: Iterable[Mapping], x_field: str, y_field: str) -> tuple[float, float]:
    """Least-squares slope and intercept of log(mean y per x) against log(x).

    Rows with a non-"ok" status or an empty y value are skipped; the remaining
    y values are averaged per distinct x before fitting. A missing column or a
    value that is not a finite number raises ``InvalidForLogFit`` naming the row
    (counted from 1) and column.
    """
    import numpy as np

    def number(num: int, row: Mapping, field: str) -> float:
        try:
            value = float(row[field])
        except (TypeError, ValueError):
            raise InvalidForLogFit(f"row {num}: {field} value {row[field]!r} is not a number") from None
        if not math.isfinite(value):
            raise InvalidForLogFit(f"row {num}: {field} value {row[field]!r} is not finite")
        return value

    groups: dict[float, list[float]] = {}
    for num, row in enumerate(rows, start=1):
        status = row.get("status", "ok")
        if status not in ("", "ok"):
            continue
        for field in (x_field, y_field):
            if field not in row:
                raise InvalidForLogFit(f"row {num}: no {field!r} column")
        if row[y_field] == "" or row[y_field] is None:
            continue
        groups.setdefault(number(num, row, x_field), []).append(number(num, row, y_field))
    if len(groups) < 3:
        raise InvalidForLogFit(f"need >= 3 distinct {x_field} values, got {len(groups)}")
    xs = np.array(sorted(groups))
    ys = np.array([np.mean(groups[x]) for x in xs])
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise InvalidForLogFit("log-log fit requires positive x and y values")
    slope, intercept = np.polyfit(np.log(xs), np.log(ys), 1)
    return float(slope), float(intercept)
