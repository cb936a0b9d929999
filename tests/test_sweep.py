import json
import math
import os
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

import hgrec.sweep
from hgrec import SweepConfig, fit_scaling, run_sweep
from hgrec.errors import HgrecError, InvalidForLogFit, ParseError
from hgrec.generators import GeneratorSpec
from hgrec.sweep import CSV_COLUMNS, InstanceSpec, rows_to_csv
from conftest import JSON_NUMBERS, JSON_VALUES, json_objects

SMALL = SweepConfig(
    instances=(InstanceSpec(structure="star", n=6, w_min=1.0, w_max=10.0),),
    n_grid=(300,),
    k_grid=(1,),
    num_seeds=1,
)


def strip_runtime(text: str) -> str:
    lines = text.splitlines()
    idx = lines[0].split(",").index("runtime_ms")
    return "\n".join(",".join(col for i, col in enumerate(l.split(",")) if i != idx) for l in lines)


def test_single_cell_single_row():
    rows = run_sweep(SMALL)
    assert len(rows) == 1
    row = rows[0]
    assert row["status"] == "ok"
    assert row["structure"] == "star" and row["m"] == 6 - 1
    assert row["L"] == 2 and row["C_pi"] == 2
    assert float(row["d_plugin"]) >= 0.0 and float(row["d_oracle"]) >= 0.0


def test_csv_columns_and_order():
    text = rows_to_csv(run_sweep(SMALL))
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS)


def test_replay_is_deterministic_modulo_runtime():
    a = rows_to_csv(run_sweep(SMALL))
    b = rows_to_csv(run_sweep(SMALL))
    assert strip_runtime(a) == strip_runtime(b)


def test_errors_recorded_and_sweep_continues():
    cfg = SweepConfig(
        instances=(
            InstanceSpec(structure="wcgnm", n=10, p=0.05, w_min=1.0, w_max=1.0),
            InstanceSpec(structure="star", n=4, w_min=1.0, w_max=1.0),
        ),
        n_grid=(100,),
        k_grid=(1,),
        num_seeds=1,
    )
    rows = run_sweep(cfg)
    assert [r["status"] for r in rows] == ["CannotBeConnected", "ok"]
    assert rows[0]["d_plugin"] == ""


@pytest.mark.parametrize("w_min", [0.0, -1.0])
def test_nonpositive_w_min_recorded_as_invalid_weights(w_min):
    cfg = SweepConfig(
        instances=(InstanceSpec(structure="star", n=5, w_min=w_min, w_max=3.0),),
        n_grid=(100, 200),
        k_grid=(1,),
        num_seeds=1,
    )
    rows = run_sweep(cfg)
    assert [r["status"] for r in rows] == ["InvalidWeights", "InvalidWeights"]
    assert all(r["d_plugin"] == "" for r in rows)


def test_cell_error_leaves_the_rest_of_its_group():
    cfg = SweepConfig(
        instances=(InstanceSpec(structure="star", n=5, w_min=1.0, w_max=3.0),),
        n_grid=(0, 100),
        k_grid=(1,),
        num_seeds=1,
    )
    rows = run_sweep(cfg)
    assert [r["status"] for r in rows] == ["ValueError", "ok"]
    assert rows[0]["m"] == rows[1]["m"] == 4 and rows[0]["d_plugin"] == ""


def test_truth_and_path_bound_are_built_once_per_group(monkeypatch):
    calls = Counter()
    bound, build = hgrec.sweep.mm_path_length_bound, GeneratorSpec.build

    def counting_bound(mg):
        calls["mm_path_length_bound"] += 1
        return bound(mg)

    def counting_build(spec):
        calls["build"] += 1
        return build(spec)

    monkeypatch.setattr(hgrec.sweep, "mm_path_length_bound", counting_bound)
    monkeypatch.setattr(GeneratorSpec, "build", counting_build)
    cfg = SweepConfig(
        instances=(
            InstanceSpec(structure="star", n=5, w_min=1.0, w_max=3.0),
            InstanceSpec(structure="chain", n=5, w_min=1.0, w_max=3.0),
        ),
        n_grid=(100, 200),
        k_grid=(1, 2),
        num_seeds=2,
    )
    rows = run_sweep(cfg)
    assert len(rows) == 16 and all(r["status"] == "ok" for r in rows)
    assert calls == {"mm_path_length_bound": 4, "build": 4}


def test_parallel_matches_serial():
    one_instance = SweepConfig(
        instances=(InstanceSpec(structure="star", n=5, w_min=1.0, w_max=3.0),),
        n_grid=(100, 200),
        k_grid=(1,),
        num_seeds=2,
    )
    # Four groups whose rows interleave: each group's cells are spread over its instance's rows.
    interleaved = SweepConfig(
        instances=(
            InstanceSpec(structure="star", n=5, w_min=1.0, w_max=3.0),
            InstanceSpec(structure="chain", n=4, w_min=1.0, w_max=2.0),
        ),
        n_grid=(100,),
        k_grid=(1, 2),
        num_seeds=2,
    )
    for cfg in (one_instance, interleaved):
        serial = rows_to_csv(run_sweep(cfg, jobs=1))
        parallel = rows_to_csv(run_sweep(cfg, jobs=2))
        assert strip_runtime(serial) == strip_runtime(parallel)


def test_pool_size_is_capped_by_groups_and_cpus(monkeypatch):
    """A pool starts all its workers on the first submit, so ``jobs`` alone must not size it."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr("hgrec.sweep.ProcessPoolExecutor", InlinePool)
    cfg = SweepConfig(
        instances=(InstanceSpec(structure="star", n=5, w_min=1.0, w_max=3.0),),
        n_grid=(100, 200),
        k_grid=(1,),
        num_seeds=2,
    )
    serial = strip_runtime(rows_to_csv(run_sweep(cfg, jobs=1)))
    for cpus, expected in ((64, [2]), (3, [2]), (1, []), (None, [])):
        sizes.clear()
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert strip_runtime(rows_to_csv(run_sweep(cfg, jobs=100_000))) == serial
        assert sizes == expected


def test_config_json_round_trip():
    doc = SMALL.to_dict()
    assert SweepConfig.from_json(json.dumps(doc)) == SMALL


def test_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(instances=(), n_grid=(1,), k_grid=(1,), num_seeds=1)
    with pytest.raises(ValueError):
        SweepConfig(
            instances=(InstanceSpec(structure="star", n=4),),
            n_grid=(1,),
            k_grid=(1,),
            num_seeds=0,
        )


@pytest.mark.parametrize("instance, message", [
    ({"structure": "star", "n": 6, "bogus": 1}, "instance 1 has unknown key 'bogus'"),
    ({"n": 6}, "instance 1 is missing key 'structure'"),
    ([], "instance 1 must be an object"),
])
def test_config_rejects_bad_instance(instance, message):
    doc = SMALL.to_dict()
    doc["instances"].append(instance)
    with pytest.raises(ValueError, match=message):
        SweepConfig.from_dict(doc)


def test_config_rejects_missing_key():
    doc = SMALL.to_dict()
    del doc["n_grid"]
    with pytest.raises(ValueError, match="missing key 'n_grid'"):
        SweepConfig.from_dict(doc)
    with pytest.raises(ValueError, match="must be an object"):
        SweepConfig.from_json("[]")


@pytest.mark.parametrize("key, value, message", [
    ("n_grid", [None], "'n_grid' entry must be an integer, got None"),
    ("n_grid", [2.5], "'n_grid' entry must be an integer, got 2.5"),
    ("n_grid", 300, "'n_grid' must be a list, got 300"),
    ("k_grid", ["1"], "'k_grid' entry must be an integer, got '1'"),
    ("k_grid", [True], "'k_grid' entry must be an integer, got True"),
    ("num_seeds", 1.5, "'num_seeds' must be an integer, got 1.5"),
    ("masking", 1, "'masking' must be a string, got 1"),
    ("instances", {"structure": "star"}, "'instances' must be a list"),
])
def test_config_rejects_wrong_types(key, value, message):
    doc = SMALL.to_dict()
    doc[key] = value
    with pytest.raises(ValueError, match=message):
        SweepConfig.from_dict(doc)


@pytest.mark.parametrize("key, value, message", [
    ("n", "six", "instance 0 key 'n' must be an integer, got 'six'"),
    ("n", 6.5, "instance 0 key 'n' must be an integer, got 6.5"),
    ("p", "dense", "instance 0 key 'p' must be a number or null, got 'dense'"),
    ("w_min", None, "instance 0 key 'w_min' must be a number, got None"),
    ("w_max", [10], "instance 0 key 'w_max' must be a number, got \\[10\\]"),
    pytest.param("w_max", 10 ** 400, "instance 0 key 'w_max' is too large for a float", id="w_max-1e400"),
    pytest.param("w_min", -10 ** 400, "instance 0 key 'w_min' is too large for a float", id="w_min--1e400"),
])
def test_config_rejects_wrong_instance_types(key, value, message):
    doc = SMALL.to_dict()
    doc["instances"][0][key] = value
    with pytest.raises(ValueError, match=message):
        SweepConfig.from_dict(doc)


def test_config_integral_floats_keep_the_master_seed():
    doc = SMALL.to_dict()
    doc["n_grid"] = [300.0]
    doc["k_grid"] = [1.0]
    doc["num_seeds"] = 1.0
    doc["instances"][0]["n"] = 6.0
    cfg = SweepConfig.from_dict(doc)
    assert cfg == SMALL and cfg.master_seed() == SMALL.master_seed()


# Any text, any JSON value, and config documents whose keys may each be missing or wrong.
SWEEP_NUMBERS = st.one_of(JSON_NUMBERS, JSON_NUMBERS, JSON_VALUES)
SWEEP_INSTANCES = st.one_of(
    st.fixed_dictionaries(
        {"structure": st.sampled_from(["star", "chain", "wcgnm"])},
        optional={"n": SWEEP_NUMBERS, "p": SWEEP_NUMBERS, "w_min": SWEEP_NUMBERS,
                  "w_max": SWEEP_NUMBERS, "q": JSON_VALUES},
    ),
    JSON_VALUES,
)
SWEEP_TEXTS = st.one_of(
    st.text(),
    st.builds(json.dumps, JSON_VALUES),
    json_objects(
        instances=st.one_of(st.lists(SWEEP_INSTANCES, max_size=2), JSON_VALUES),
        n_grid=st.one_of(st.lists(SWEEP_NUMBERS, max_size=2), JSON_VALUES),
        k_grid=st.one_of(st.lists(SWEEP_NUMBERS, max_size=2), JSON_VALUES),
        num_seeds=SWEEP_NUMBERS,
        masking=st.one_of(st.just("uniform1"), JSON_VALUES),
    ),
)


@settings(max_examples=300, deadline=None)
@given(SWEEP_TEXTS)
@example(json.dumps({"instances": [{"structure": "star", "n": 6, "w_max": 10 ** 400}],
                     "n_grid": [100], "k_grid": [1], "num_seeds": 1}))
def test_config_json_loads_or_raises_a_domain_error(text):
    """Any text loads to a config whose real numbers each convert to a float, or raises a domain error."""
    try:
        cfg = SweepConfig.from_json(text)
    except ParseError as exc:
        assert 1 <= exc.line_number <= text.count("\n") + 1
    except (HgrecError, ValueError):
        pass
    else:
        for inst in cfg.instances:
            for x in (inst.p, inst.w_min, inst.w_max):
                if x is not None:
                    float(x)  # an OverflowError here would escape a sweep row


# -- scaling fits -------------------------------------------------------------------

def test_fit_exact_power_law():
    rows = [{"N": n, "d": n ** -0.5} for n in (10, 100, 1000, 10_000)]
    slope, _ = fit_scaling(rows, "N", "d")
    assert slope == pytest.approx(-0.5, abs=1e-9)


def test_fit_constant():
    rows = [{"N": n, "d": 3.5} for n in (10, 100, 1000)]
    slope, _ = fit_scaling(rows, "N", "d")
    assert slope == pytest.approx(0.0, abs=1e-9)


def test_fit_reciprocal():
    import math

    rows = [{"N": n, "d": 2.0 / n} for n in (10, 100, 1000)]
    slope, intercept = fit_scaling(rows, "N", "d")
    assert slope == pytest.approx(-1.0, abs=1e-9)
    assert intercept == pytest.approx(math.log(2), abs=1e-9)


def test_fit_averages_within_cells():
    rows = [
        {"N": 10, "d": 1.0},
        {"N": 10, "d": 3.0},
        {"N": 100, "d": 2.0},
        {"N": 1000, "d": 2.0},
    ]
    slope, _ = fit_scaling(rows, "N", "d")
    assert slope == pytest.approx(0.0, abs=1e-9)


def test_fit_skips_failed_rows():
    rows = [
        {"N": 10, "d": 1.0, "status": "ok"},
        {"N": 100, "d": 1.0, "status": "ok"},
        {"N": 1000, "d": 1.0, "status": "ok"},
        {"N": 5000, "d": "", "status": "CannotBeConnected"},
    ]
    slope, _ = fit_scaling(rows, "N", "d")
    assert slope == pytest.approx(0.0, abs=1e-9)


def test_fit_skips_ok_rows_without_a_y_value():
    rows = [{"N": n, "d": 2.0 / n} for n in (10, 100, 1000)]
    with_empty = rows + [{"N": 5000, "d": ""}, {"N": "x", "d": None, "status": "ok"}]
    assert fit_scaling(with_empty, "N", "d") == fit_scaling(rows, "N", "d")


def test_fit_needs_three_points():
    with pytest.raises(InvalidForLogFit):
        fit_scaling([{"N": 1, "d": 1.0}, {"N": 2, "d": 1.0}], "N", "d")


def test_fit_rejects_nonpositive():
    rows = [{"N": n, "d": 0.0} for n in (1, 2, 3)]
    with pytest.raises(InvalidForLogFit):
        fit_scaling(rows, "N", "d")


@pytest.mark.parametrize("rows, message", [
    ([{"N": 10}], "row 1: no 'd' column"),
    ([{"N": 10, "d": 1.0}, {"d": 1.0}], "row 2: no 'N' column"),
    ([{"N": 10, "d": 1.0}, {"N": 100, "d": "abc"}], "row 2: d value 'abc' is not a number"),
    ([{"N": None, "d": 1.0}], "row 1: N value None is not a number"),
    ([{"N": 10, "d": 1.0}, {"N": 100, "d": math.inf}], "row 2: d value inf is not finite"),
    ([{"N": math.nan, "d": 1.0}], "row 1: N value nan is not finite"),
])
def test_fit_names_missing_columns_and_bad_values(rows, message):
    with pytest.raises(InvalidForLogFit) as exc:
        fit_scaling(rows, "N", "d")
    assert str(exc.value) == message
