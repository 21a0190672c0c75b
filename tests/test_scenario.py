"""Scenario document parsing: strict validation, defaults, presets."""

import json
import tracemalloc

import pytest

from creatorgame import (
    BoxDomain,
    Exact,
    MAX_GRID_EVALUATIONS,
    PRESETS,
    Quantal,
    Satisficing,
    ScenarioError,
    SimplexDomain,
    Strategy,
    UtilityModel,
    load_scenario,
    parse_scenario,
    preset_scenario,
)

MINIMAL = {
    "weights": {"alpha": 1.0, "beta": 2.0, "gamma": 1.5},
    "creator": {"delta": 1.0, "model": "linear"},
}


def test_minimal_scenario_defaults():
    scenario = parse_scenario(MINIMAL)
    assert scenario.weights.beta == 2.0
    assert scenario.creator.delta == 1.0
    assert scenario.creator.model is UtilityModel.LINEAR
    assert scenario.table.profiles[Strategy.BEEFING].drama_risk == 3.0
    assert len(scenario.population) == 1
    assert scenario.population.members[0] == scenario.creator
    assert scenario.rule == Exact()
    assert scenario.domain == SimplexDomain(total=1.0, resolution=100)


def test_model_defaults_to_linear():
    doc = {"weights": MINIMAL["weights"], "creator": {"delta": 0.5}}
    assert parse_scenario(doc).creator.model is UtilityModel.LINEAR


def test_unknown_keys_rejected_with_path():
    doc = dict(MINIMAL)
    doc["wieghts"] = {}
    with pytest.raises(ScenarioError, match=r"scenario\.wieghts"):
        parse_scenario(doc)

    doc = {"weights": {"alpha": 1, "beta": 1, "gamma": 1, "omega": 2}, "creator": {"delta": 1}}
    with pytest.raises(ScenarioError, match=r"scenario\.weights\.omega"):
        parse_scenario(doc)

    doc = {"weights": MINIMAL["weights"], "creator": {"delta": 1, "sponsor": 3}}
    with pytest.raises(ScenarioError, match=r"scenario\.creator\.sponsor"):
        parse_scenario(doc)


def test_missing_sections_and_values():
    with pytest.raises(ScenarioError, match=r"scenario\.weights"):
        parse_scenario({"creator": {"delta": 1}})
    with pytest.raises(ScenarioError, match=r"scenario\.creator"):
        parse_scenario({"weights": MINIMAL["weights"]})
    with pytest.raises(ScenarioError, match=r"scenario\.weights\.gamma"):
        parse_scenario({"weights": {"alpha": 1, "beta": 1}, "creator": {"delta": 1}})


def test_numeric_constraints_revalidated_on_load():
    doc = {"weights": {"alpha": -1.0, "beta": 1, "gamma": 1}, "creator": {"delta": 1}}
    with pytest.raises(ScenarioError, match=r"scenario\.weights"):
        parse_scenario(doc)
    doc = {"weights": MINIMAL["weights"], "creator": {"delta": -2.0}}
    with pytest.raises(ScenarioError, match=r"scenario\.creator"):
        parse_scenario(doc)
    doc = {"weights": {"alpha": True, "beta": 1, "gamma": 1}, "creator": {"delta": 1}}
    with pytest.raises(ScenarioError, match=r"scenario\.weights\.alpha"):
        parse_scenario(doc)


def test_bad_model_string():
    doc = {"weights": MINIMAL["weights"], "creator": {"delta": 1, "model": "log"}}
    with pytest.raises(ScenarioError, match=r"scenario\.creator\.model"):
        parse_scenario(doc)


def test_population_deltas_list():
    doc = dict(MINIMAL, population={"deltas": [0.5, 1.5, 3.0]})
    scenario = parse_scenario(doc)
    assert [m.delta for m in scenario.population.members] == [0.5, 1.5, 3.0]
    assert all(m.model is UtilityModel.LINEAR for m in scenario.population.members)


def test_population_grid():
    doc = dict(MINIMAL, population={"grid": {"min": 0, "max": 4, "count": 5}})
    scenario = parse_scenario(doc)
    assert [m.delta for m in scenario.population.members] == [0.0, 1.0, 2.0, 3.0, 4.0]


@pytest.mark.parametrize("count", [MAX_GRID_EVALUATIONS + 1, 10**13, 10**100])
def test_population_grid_count_is_bounded_before_allocating(count):
    doc = dict(MINIMAL, population={"grid": {"min": 0, "max": 1, "count": count}})
    tracemalloc.start()
    try:
        with pytest.raises(ScenarioError, match=r"^scenario\.population: count must be <= 10000000, the limit"):
            parse_scenario(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_population_exactly_one_form():
    doc = dict(MINIMAL, population={"deltas": [1], "grid": {"min": 0, "max": 1, "count": 2}})
    with pytest.raises(ScenarioError, match=r"scenario\.population"):
        parse_scenario(doc)
    doc = dict(MINIMAL, population={})
    with pytest.raises(ScenarioError, match=r"scenario\.population"):
        parse_scenario(doc)
    doc = dict(MINIMAL, population={"deltas": []})
    with pytest.raises(ScenarioError, match=r"scenario\.population\.deltas"):
        parse_scenario(doc)
    doc = dict(MINIMAL, population={"deltas": [1.0, "x"]})
    with pytest.raises(ScenarioError, match=r"deltas\[1\]"):
        parse_scenario(doc)


def test_rule_forms():
    assert parse_scenario(dict(MINIMAL, rule="exact")).rule == Exact()
    scenario = parse_scenario(dict(MINIMAL, rule={"quantal": {"lambda": 2.5}}))
    assert scenario.rule == Quantal(lam=2.5)
    scenario = parse_scenario(dict(MINIMAL, rule={"satisficing": {"aspiration": 13.0}}))
    assert scenario.rule == Satisficing(aspiration=13.0)
    with pytest.raises(ScenarioError, match=r"scenario\.rule"):
        parse_scenario(dict(MINIMAL, rule="greedy"))
    with pytest.raises(ScenarioError, match=r"scenario\.rule\.quantal"):
        parse_scenario(dict(MINIMAL, rule={"quantal": {"temp": 1.0}}))
    with pytest.raises(ScenarioError, match=r"scenario\.rule"):
        parse_scenario(dict(MINIMAL, rule={"quantal": {"lambda": -1.0}}))


def test_domain_forms():
    scenario = parse_scenario(dict(MINIMAL, domain={"simplex": {"total": 2.0, "resolution": 7}}))
    assert scenario.domain == SimplexDomain(total=2.0, resolution=7)
    scenario = parse_scenario(dict(MINIMAL, domain={"simplex": {}}))
    assert scenario.domain == SimplexDomain(total=1.0, resolution=100)
    scenario = parse_scenario(
        dict(MINIMAL, domain={"box": {"alpha_max": 1, "beta_max": 2, "gamma_max": 3, "resolution": 4}})
    )
    assert scenario.domain == BoxDomain(1.0, 2.0, 3.0, resolution=4)
    with pytest.raises(ScenarioError, match=r"scenario\.domain"):
        parse_scenario(dict(MINIMAL, domain={"ball": {}}))
    with pytest.raises(ScenarioError, match=r"scenario\.domain\.box\.alpha_max"):
        parse_scenario(dict(MINIMAL, domain={"box": {"beta_max": 2, "gamma_max": 3}}))


def test_table_override():
    doc = dict(
        MINIMAL,
        table={
            "collaboration": {"clicks": 1, "watch_time": 9, "shares": 2, "drama_risk": 0},
            "beefing": {"clicks": 8, "watch_time": 1, "shares": 5, "drama_risk": 4},
        },
    )
    scenario = parse_scenario(doc)
    assert scenario.table.profiles[Strategy.COLLABORATION].watch_time == 9.0
    assert scenario.table.profiles[Strategy.BEEFING].drama_risk == 4.0

    doc = dict(MINIMAL, table={"collaboration": {"clicks": 1, "watch_time": 9, "shares": 2, "drama_risk": 0}})
    with pytest.raises(ScenarioError, match=r"scenario\.table\.beefing"):
        parse_scenario(doc)
    doc = dict(
        MINIMAL,
        table={
            "collaboration": {"clicks": 1, "watch_time": 9, "shares": 2, "drama_risk": 0, "likes": 3},
            "beefing": {"clicks": 8, "watch_time": 1, "shares": 5, "drama_risk": 4},
        },
    )
    with pytest.raises(ScenarioError, match=r"scenario\.table\.collaboration\.likes"):
        parse_scenario(doc)


def test_non_object_document():
    with pytest.raises(ScenarioError):
        parse_scenario([1, 2, 3])


def test_presets_cover_the_worked_examples():
    assert set(PRESETS) == {"example1", "example2", "example3", "tiktok-like", "youtube-like"}
    ex1 = preset_scenario("example1")
    assert (ex1.weights.alpha, ex1.weights.beta, ex1.weights.gamma) == (1.0, 2.0, 1.5)
    assert ex1.creator.delta == 1.0
    ex2 = preset_scenario("example2")
    assert ex2.creator.delta == 2.5
    ex3 = preset_scenario("example3")
    assert (ex3.weights.alpha, ex3.weights.beta, ex3.weights.gamma) == (2.5, 0.5, 2.0)
    # archetypes lean the documented way
    tiktok = preset_scenario("tiktok-like")
    assert tiktok.weights.alpha > tiktok.weights.beta and tiktok.weights.gamma > tiktok.weights.beta
    youtube = preset_scenario("youtube-like")
    assert youtube.weights.beta > youtube.weights.alpha and youtube.weights.beta > youtube.weights.gamma
    with pytest.raises(ScenarioError):
        preset_scenario("example9")


def test_load_scenario_from_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(MINIMAL))
    scenario = load_scenario(path)
    assert scenario.weights.gamma == 1.5

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ScenarioError):
        load_scenario(bad)
    with pytest.raises(OSError):
        load_scenario(tmp_path / "missing.json")
