import math

import numpy as np
import pytest

from hgrec import BoundsInput, lemma_rr_bounds, lower_bound_risk, mm_sample_bounds
from hgrec.errors import HypothesisViolated
from hgrec.rng import rng_stream

EXAMPLE = dict(m=10, kappa=3, L=2, c_pi=0.5, C_pi=2, epsilon=0.1, delta=0.1)


def test_lower_bound_exact_values():
    assert lower_bound_risk(100, 10_000) == 0.00625
    assert lower_bound_risk(7, 7) == 1 / 16
    assert lower_bound_risk(5, 1000) == pytest.approx(0.004419, abs=1e-6)


def test_lower_bound_needs_enough_samples():
    with pytest.raises(HypothesisViolated):
        lower_bound_risk(100, 99)


def test_mm_sample_bounds_derived_example():
    k_min, n_min = mm_sample_bounds(BoundsInput(**EXAMPLE))
    # 2^14 * 100 * 9 * 4 / (0.25 * 0.01) * ln(1200) = 2.359296e10 * ln(1200)
    expected_k = 2.359296e10 * math.log(1200)
    assert k_min == math.ceil(expected_k)
    assert k_min == pytest.approx(1.67e11, rel=5e-3)
    assert n_min == 51176


def test_mm_bounds_epsilon_quadruples():
    base_k, base_n = mm_sample_bounds(BoundsInput(**EXAMPLE))
    half = dict(EXAMPLE, epsilon=EXAMPLE["epsilon"] / 2)
    k2, n2 = mm_sample_bounds(BoundsInput(**half))
    assert abs(k2 - 4 * base_k) <= 4  # exact quadrupling up to the ceilings
    assert abs(n2 - 4 * base_n) <= 4  # the accuracy term dominates here


def test_mm_bounds_delta_shift():
    base_k, _ = mm_sample_bounds(BoundsInput(**EXAMPLE))
    shifted = dict(EXAMPLE, delta=EXAMPLE["delta"] / math.e)
    k2, _ = mm_sample_bounds(BoundsInput(**shifted))
    log_base = math.log(6 * EXAMPLE["m"] * EXAMPLE["C_pi"] / EXAMPLE["delta"])
    assert k2 / base_k == pytest.approx((log_base + 1) / log_base, rel=1e-9)


@pytest.mark.parametrize(
    "field,factor,direction",
    [
        ("epsilon", 2.0, "down"),
        ("delta", 2.0, "down"),
        ("m", 2, "up"),
        ("kappa", 2.0, "up"),
        ("L", 2, "up"),
        ("C_pi", 2.0, "up"),
        ("c_pi", 1.5, "down"),
    ],
)
def test_mm_bounds_monotone(field, factor, direction):
    base = mm_sample_bounds(BoundsInput(**EXAMPLE))
    bumped = dict(EXAMPLE)
    bumped[field] = (
        bumped[field] * factor if isinstance(bumped[field], float) else int(bumped[field] * factor)
    )
    if field in ("epsilon", "delta", "c_pi") and bumped[field] >= 1:
        bumped[field] = 0.9
    other = mm_sample_bounds(BoundsInput(**bumped))
    if direction == "up":
        assert other[0] >= base[0] and other[1] >= base[1]
    else:
        assert other[0] <= base[0] and other[1] <= base[1]


def test_lemma_examples():
    assert lemma_rr_bounds(2, 1) == (0.5, 0.5)
    assert lemma_rr_bounds(2, 3) == (pytest.approx(1 / 6), pytest.approx(3 / 4))
    assert lemma_rr_bounds(3, 2) == (pytest.approx(1 / 6), pytest.approx(1 / 2))


@pytest.mark.parametrize("m0", [2, 3, 5])
@pytest.mark.parametrize("kappa0", [1, 2, 3])
def test_lemma_property(m0, kappa0):
    lo, hi = lemma_rr_bounds(m0, kappa0)
    rng = rng_stream(99, "lemma-test", m0, kappa0)
    draws = np.where(rng.integers(0, 2, size=(1000, m0)) == 1, float(kappa0), 1.0)
    probs = draws / draws.sum(axis=1, keepdims=True)
    assert np.all(probs.min(axis=1) >= lo - 1e-12)
    assert np.all(probs.max(axis=1) <= hi + 1e-12)


@pytest.mark.parametrize("field", ["m", "kappa", "L", "C_pi"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_bounds_input_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        BoundsInput(**dict(EXAMPLE, **{field: value}))


@pytest.mark.parametrize("m0, kappa0, field", [
    (2, math.inf, "kappa0"), (2, math.nan, "kappa0"), (math.inf, 2, "m0"), (math.nan, 2, "m0"),
])
def test_lemma_rejects_non_finite(m0, kappa0, field):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        lemma_rr_bounds(m0, kappa0)


def test_bounds_input_validation():
    bad = dict(EXAMPLE)
    for f, v in [
        ("m", 0),
        ("kappa", 0.5),
        ("L", 0),
        ("c_pi", 0.0),
        ("c_pi", 1.5),
        ("C_pi", 0.5),
        ("epsilon", 0.0),
        ("epsilon", 1.0),
        ("delta", 0.0),
    ]:
        args = dict(bad)
        args[f] = v
        with pytest.raises(ValueError):
            BoundsInput(**args)
