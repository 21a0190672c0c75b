"""Scenario document parsing: strict validation, defaults, presets."""

import json
import tracemalloc

import pytest

from creatorgame import (
    BoxDomain,
    Exact,
    InvalidScenarioError,
    MAX_GRID_EVALUATIONS,
    PRESETS,
    Quantal,
    Satisficing,
    ScenarioError,
    SimplexDomain,
    Strategy,
    UtilityModel,
    load_scenario,
    make_delta_grid_population,
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


def _with(**sections):
    return dict(MINIMAL, **sections)


PROFILE = {"clicks": 1, "watch_time": 2, "shares": 3, "drama_risk": 0}
BOX = {"alpha_max": 1, "beta_max": 2, "gamma_max": 3}
TOO_MANY = MAX_GRID_EVALUATIONS + 1

# Every branch of the parser, with its exact message.
EXACT_MESSAGES = [
    # a non-object at each level
    ([1, 2, 3], "scenario: expected an object, got list"),
    (_with(weights=3), "scenario.weights: expected an object, got int"),
    (_with(creator="x"), "scenario.creator: expected an object, got str"),
    (_with(table=[]), "scenario.table: expected an object, got list"),
    (_with(table={"collaboration": 1, "beefing": PROFILE}),
     "scenario.table.collaboration: expected an object, got int"),
    (_with(table={"collaboration": PROFILE, "beefing": None}),
     "scenario.table.beefing: expected an object, got NoneType"),
    (_with(population=None), "scenario.population: expected an object, got NoneType"),
    (_with(population={"grid": [0, 1, 2]}), "scenario.population.grid: expected an object, got list"),
    (_with(rule=5), "scenario.rule: expected an object, got int"),
    (_with(rule={"quantal": 1}), "scenario.rule.quantal: expected an object, got int"),
    (_with(rule={"satisficing": "high"}), "scenario.rule.satisficing: expected an object, got str"),
    (_with(domain=1.5), "scenario.domain: expected an object, got float"),
    (_with(domain={"simplex": 2}), "scenario.domain.simplex: expected an object, got int"),
    (_with(domain={"box": []}), "scenario.domain.box: expected an object, got list"),
    # the first sorted unknown key at each level
    (_with(zeta=1, wieghts={}), "scenario.wieghts: unknown key"),
    (_with(weights={"alpha": 1, "beta": 1, "gamma": 1, "omega": 2, "kappa": 1}),
     "scenario.weights.kappa: unknown key"),
    (_with(creator={"delta": 1, "sponsor": 3}), "scenario.creator.sponsor: unknown key"),
    (_with(table={"likes": 1}), "scenario.table.likes: unknown key"),
    (_with(table={"collaboration": dict(PROFILE, likes=3), "beefing": PROFILE}),
     "scenario.table.collaboration.likes: unknown key"),
    (_with(population={"size": 3, "deltas": [1]}), "scenario.population.size: unknown key"),
    (_with(population={"grid": {"min": 0, "max": 1, "count": 2, "step": 1}}),
     "scenario.population.grid.step: unknown key"),
    (_with(rule={"greedy": {}}), "scenario.rule.greedy: unknown key"),
    (_with(rule={"quantal": {"temp": 1.0}}), "scenario.rule.quantal.temp: unknown key"),
    (_with(rule={"satisficing": {"aspiration": 1, "level": 2}}),
     "scenario.rule.satisficing.level: unknown key"),
    (_with(domain={"ball": {}, "simplex": {}}), "scenario.domain.ball: unknown key"),
    (_with(domain={"simplex": {"step": 1}}), "scenario.domain.simplex.step: unknown key"),
    (_with(domain={"box": dict(BOX, delta_max=1)}), "scenario.domain.box.delta_max: unknown key"),
    # missing required sections and values
    ({"creator": {"delta": 1}}, "scenario.weights: missing required section"),
    ({}, "scenario.weights: missing required section"),
    ({"weights": MINIMAL["weights"]}, "scenario.creator: missing required section"),
    (_with(table={}), "scenario.table.collaboration: missing required section"),
    (_with(table={"beefing": {}}), "scenario.table.collaboration: missing required section"),
    (_with(table={"collaboration": PROFILE}), "scenario.table.beefing: missing required section"),
    (_with(table={"collaboration": {}}), "scenario.table.collaboration.clicks: missing required value"),
    (_with(weights={"alpha": 1, "beta": 1}), "scenario.weights.gamma: missing required value"),
    (_with(creator={"model": "log"}), "scenario.creator.delta: missing required value"),
    (_with(table={"collaboration": PROFILE, "beefing": {"clicks": 1, "watch_time": 2, "shares": 3}}),
     "scenario.table.beefing.drama_risk: missing required value"),
    (_with(population={"grid": {"min": 0, "max": 1}}),
     "scenario.population.grid.count: missing required value"),
    (_with(rule={"quantal": {}}), "scenario.rule.quantal.lambda: missing required value"),
    (_with(rule={"satisficing": {}}), "scenario.rule.satisficing.aspiration: missing required value"),
    (_with(domain={"box": {"beta_max": 2, "gamma_max": 3}}),
     "scenario.domain.box.alpha_max: missing required value"),
    # wrong types
    (_with(weights={"alpha": True, "beta": 1, "gamma": 1}),
     "scenario.weights.alpha: expected a number, got True"),
    (_with(weights={"alpha": 1, "beta": "2", "gamma": None}),
     "scenario.weights.beta: expected a number, got '2'"),
    (_with(creator={"delta": [1], "model": "log"}), "scenario.creator.delta: expected a number, got [1]"),
    (_with(table={"collaboration": dict(PROFILE, shares=False), "beefing": PROFILE}),
     "scenario.table.collaboration.shares: expected a number, got False"),
    (_with(population={"grid": {"min": 0, "max": 1, "count": 10.0}}),
     "scenario.population.grid.count: expected an integer, got 10.0"),
    (_with(population={"grid": {"min": "0", "max": 1, "count": 2}}),
     "scenario.population.grid.min: expected a number, got '0'"),
    (_with(rule={"quantal": {"lambda": True}}), "scenario.rule.quantal.lambda: expected a number, got True"),
    (_with(domain={"simplex": {"resolution": 10.0}}),
     "scenario.domain.simplex.resolution: expected an integer, got 10.0"),
    (_with(domain={"simplex": {"total": {}}}), "scenario.domain.simplex.total: expected a number, got {}"),
    (_with(domain={"box": dict(BOX, resolution=True)}),
     "scenario.domain.box.resolution: expected an integer, got True"),
    # a bad model
    (_with(creator={"delta": 1, "model": "log"}),
     "scenario.creator.model: expected \"linear\" or \"nonlinear\", got 'log'"),
    (_with(creator={"delta": 1, "model": 1}),
     "scenario.creator.model: expected \"linear\" or \"nonlinear\", got 1"),
    # one-of sections
    (_with(population={}), 'scenario.population: give exactly one of "deltas" or "grid"'),
    (_with(population={"deltas": [1], "grid": {}}),
     'scenario.population: give exactly one of "deltas" or "grid"'),
    (_with(rule={}), 'scenario.rule: expected "exact" or exactly one of quantal/satisficing'),
    (_with(rule={"quantal": {}, "satisficing": {}}),
     'scenario.rule: expected "exact" or exactly one of quantal/satisficing'),
    (_with(rule="greedy"), "scenario.rule: expected an object, got str"),
    (_with(domain={}), "scenario.domain: expected exactly one of simplex/box"),
    (_with(domain={"simplex": {}, "box": {}}), "scenario.domain: expected exactly one of simplex/box"),
    # population deltas and grid
    (_with(population={"deltas": []}), "scenario.population.deltas: expected a non-empty list"),
    (_with(population={"deltas": 1.0}), "scenario.population.deltas: expected a non-empty list"),
    (_with(population={"deltas": [1.0, "x"]}), "scenario.population.deltas[1]: expected a number, got 'x'"),
    (_with(population={"deltas": [1, True]}), "scenario.population.deltas[1]: expected a number, got True"),
    (_with(population={"deltas": [1, -1.0, "x"]}), "scenario.population: delta must be >= 0.0, got -1.0"),
    (_with(population={"deltas": [float("nan")]}), "scenario.population: delta must be finite, got nan"),
    (_with(population={"grid": {"min": 0, "max": 1, "count": TOO_MANY}}),
     f"scenario.population: count must be <= 10000000, the limit of grid evaluations, got {TOO_MANY}"),
    (_with(population={"grid": {"min": 0, "max": 1, "count": 0}}),
     "scenario.population: count must be >= 1, got 0"),
    (_with(population={"grid": {"min": 2, "max": 1, "count": 2}}),
     "scenario.population: need 0 <= delta_min <= delta_max, got [2.0, 1.0]"),
    (_with(population={"grid": {"min": -1, "max": 1, "count": 2}}),
     "scenario.population: need 0 <= delta_min <= delta_max, got [-1.0, 1.0]"),
    # a constructor's error, under its section's path
    (_with(weights={"alpha": -1.0, "beta": 1, "gamma": 1}),
     "scenario.weights: alpha must be >= 0.0, got -1.0"),
    (_with(creator={"delta": float("inf")}), "scenario.creator: delta must be finite, got inf"),
    (_with(table={"collaboration": PROFILE, "beefing": dict(PROFILE, drama_risk=-1)}),
     "scenario.table.beefing: drama_risk must be >= 0.0, got -1.0"),
    (_with(rule={"quantal": {"lambda": -1.0}}), "scenario.rule: lam must be >= 0.0, got -1.0"),
    (_with(rule={"satisficing": {"aspiration": float("nan")}}),
     "scenario.rule: aspiration must be finite, got nan"),
    (_with(domain={"simplex": {"total": 0}}), "scenario.domain: total must be > 0, got 0.0"),
    (_with(domain={"simplex": {"resolution": 0}}),
     "scenario.domain: resolution must be an integer >= 1, got 0"),
    (_with(domain={"box": dict(BOX, gamma_max=0)}), "scenario.domain: gamma_max must be > 0, got 0.0"),
    # sections are read in order: weights, creator, table, population, rule, domain
    (_with(weights={}, creator={}), "scenario.weights.alpha: missing required value"),
    (_with(creator={}, table={}), "scenario.creator.delta: missing required value"),
    (_with(table={}, population={}), "scenario.table.collaboration: missing required section"),
    (_with(population={}, rule={}), 'scenario.population: give exactly one of "deltas" or "grid"'),
    (_with(rule={}, domain={}), 'scenario.rule: expected "exact" or exactly one of quantal/satisficing'),
]


@pytest.mark.parametrize(("doc", "message"), EXACT_MESSAGES)
def test_every_error_message_exactly(doc, message):
    with pytest.raises(ScenarioError) as info:
        parse_scenario(doc)
    assert str(info.value) == message


@pytest.mark.parametrize(
    ("domain", "expected"),
    [
        ({"simplex": {}}, SimplexDomain(total=1.0, resolution=100)),
        ({"simplex": {"total": 2}}, SimplexDomain(total=2.0, resolution=100)),
        ({"simplex": {"resolution": 7}}, SimplexDomain(total=1.0, resolution=7)),
        ({"box": BOX}, BoxDomain(1.0, 2.0, 3.0, resolution=100)),
    ],
)
def test_domain_defaults(domain, expected):
    parsed = parse_scenario(_with(domain=domain)).domain
    assert parsed == expected
    assert type(parsed.resolution) is int and type(getattr(parsed, "total", 0.0)) is float


@pytest.mark.parametrize(
    ("text", "key"),
    [
        ('{"weights": {"alpha": 1, "beta": 1, "gamma": 1}, "creator": {"delta": 1}, "weights": {}}', "weights"),
        ('{"weights": {"alpha": 1, "beta": 1, "gamma": 1, "beta": 1}, "creator": {"delta": 1}}', "beta"),
        (
            '{"weights": {"alpha": 1, "beta": 1, "gamma": 1}, "creator": {"delta": 1},'
            ' "domain": {"box": {"alpha_max": 1, "beta_max": 1, "gamma_max": 1, "resolution": 4, "resolution": 5}}}',
            "resolution",
        ),
    ],
)
def test_load_scenario_refuses_duplicate_keys(tmp_path, text, key):
    path = tmp_path / "scenario.json"
    path.write_text(text)
    with pytest.raises(ScenarioError) as info:
        load_scenario(path)
    assert str(info.value) == f"scenario: invalid JSON: duplicate key {key!r}"


def test_infinite_grid_bound_is_refused_before_linspace():
    for bounds, message in [
        ((0.0, float("inf")), "delta_max must be finite, got inf"),
        ((float("-inf"), 1.0), "delta_min must be finite, got -inf"),
        ((float("nan"), 1.0), "delta_min must be finite, got nan"),
    ]:
        with pytest.raises(InvalidScenarioError) as info:
            make_delta_grid_population(*bounds, 3)
        assert str(info.value) == message
    doc = dict(MINIMAL, population={"grid": {"min": 0, "max": float("inf"), "count": 3}})
    with pytest.raises(ScenarioError) as info:
        parse_scenario(doc)
    assert str(info.value) == "scenario.population: delta_max must be finite, got inf"


def test_load_scenario_reports_undecodable_bytes_as_invalid_json(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_bytes(b'{"weights\xff": 1}')
    with pytest.raises(ScenarioError) as info:
        load_scenario(path)
    assert str(info.value).startswith("scenario: invalid JSON: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16", "utf-16-le", "utf-16-be", "utf-32"])
def test_load_scenario_reads_every_json_encoding(tmp_path, encoding):
    path = tmp_path / "scenario.json"
    path.write_bytes(json.dumps(MINIMAL).encode(encoding))
    assert repr(load_scenario(path)) == repr(parse_scenario(MINIMAL))


@pytest.mark.parametrize(
    "raw",
    [b"{not json", b'{"a": 1} x', b"", b"\xef\xbb\xbf{", '{"a": }'.encode("utf-16"), b'{"a\xff": 1}'],
)
def test_load_scenario_errors_are_json_loads_errors(tmp_path, raw):
    path = tmp_path / "scenario.json"
    path.write_bytes(raw)
    with pytest.raises(ValueError) as expected:
        json.loads(raw)
    with pytest.raises(ScenarioError) as info:
        load_scenario(path)
    assert str(info.value) == f"scenario: invalid JSON: {expected.value}"


def test_population_grid_is_built_through_the_module_binding(monkeypatch):
    # span tracing replaces module bindings; a reference captured at import would escape it
    import creatorgame.scenario as scenario_module

    calls = []

    def recording(*args):
        calls.append(args)
        return make_delta_grid_population(*args)

    monkeypatch.setattr(scenario_module, "make_delta_grid_population", recording)
    parse_scenario(dict(MINIMAL, population={"grid": {"min": 0, "max": 4, "count": 5}}))
    assert calls == [(0.0, 4.0, 5, UtilityModel.LINEAR)]
