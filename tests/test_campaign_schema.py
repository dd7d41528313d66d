"""The campaign schema, declared once (:mod:`repro.testing.record`).

``TestConfig``, ``FaultConfig`` and ``StrategySpec`` name each field, its
default and its rule on one line; construction-time validation, campaign
JSON and the checkpoint fingerprint read that table.  Held here against
the hand-written codec it replaced (``tests/reference_config.py``) on
Hypothesis-generated configs — every field off its default, faults with
``crash_classes``, specs in each spelling, nulls — and against
``tests/golden_campaign.json``, which the *parent* commit wrote and which
pins ``to_json()`` byte for byte.

Mutation check: deleting any one field line from ``TestConfig`` fails
``test_table_codec_equals_the_hand_written_one`` (the reference document
has a key the table's lacks), ``test_decode_inverts_encode`` (the
round-tripped config lost the field) and
``test_golden_campaign_is_byte_identical`` (the golden has the key);
``test_dropping_any_field_line_is_caught`` does exactly that, in process,
for every field.

Settings are bounded and derandomized so the fast CI lane is
reproducible and reads no clock.
"""

import dataclasses
import json
import re
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import FaultConfig, PSharpError, StrategySpec, TestConfig
from repro.bench.raft import ElectionSafetyMonitor
from repro.errors import DocumentError
from repro.testing.checkpoint import NOT_IDENTITY, config_fingerprint
from repro.testing.record import COUNT, field, keep, record

from . import reference_config as reference
from .machines import Ping, RacyCounter

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden_campaign.json"
SETTINGS = settings(max_examples=120, deadline=None, derandomize=True)


def golden_config():
    """Every field off its default.  ``tests/golden_campaign.json`` is
    what ``golden_config().save(...)`` wrote at the parent commit."""
    return TestConfig(
        program="tests.machines:Ping",
        payload={"rounds": 3, "names": ["a", "b"], "nested": {"z": None, "a": 1.5}},
        strategy="pct,depth=10",
        specs=(
            StrategySpec("random", {"seed": 1}),
            "delay-bounding,delays=2",
            ("dfs", {"max_depth": 8}),
        ),
        seed=7, max_iterations=123, time_limit=45.5, max_steps=999,
        stop_on_first_bug=False, livelock_as_bug=True, record_traces=False,
        workers="inline", monitors=(ElectionSafetyMonitor,), max_hot_steps=77,
        portfolio_workers=3, start_method="spawn",
        faults=FaultConfig(
            drop=0.1, duplicate=0.2, delay=0.3, crash=0.05,
            persistent_state=False, max_faults=5, crash_classes=(Ping,),
        ),
        iteration_timeout=2.5, coverage=True, events_path="/tmp/events.jsonl",
        reduction="dpor+state-cache", state_cache_size=4096,
    )


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-9, 9), st.text("ab", max_size=2)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=2), st.dictionaries(st.text("xy", max_size=2), inner, max_size=2)
    ),
    max_leaves=4,
)
SPEC_OBJECTS = st.builds(
    StrategySpec,
    st.sampled_from(["random", "pct", "dfs", "iddfs", "delay-bounding", "fair-random"]),
    st.dictionaries(
        st.sampled_from(["seed", "depth", "delays", "max_depth"]), st.integers(0, 50),
        max_size=2,
    ),
)


def cli_spelling(spec):
    return ",".join([spec.name, *(f"{key}={value}" for key, value in spec.params.items())])


#: A spec in each spelling the constructor and campaign JSON read.
SPELLINGS = st.one_of(
    SPEC_OBJECTS,
    SPEC_OBJECTS.map(cli_spelling),
    SPEC_OBJECTS.map(lambda spec: (spec.name, dict(spec.params))),
)
PROBABILITIES = st.sampled_from([0, 0.0, 0.05, 0.5, 1, 1.0])
CLASS_TUPLES = st.lists(st.sampled_from([Ping, RacyCounter]), max_size=2).map(tuple)
FAULTS = st.builds(
    FaultConfig,
    drop=PROBABILITIES, duplicate=PROBABILITIES, delay=PROBABILITIES,
    crash=PROBABILITIES, persistent_state=st.booleans(),
    max_faults=st.integers(0, 40), crash_classes=CLASS_TUPLES,
)
DURATIONS = st.one_of(st.integers(1, 900), st.floats(0.001, 900.0))
CONFIGS = st.fixed_dictionaries(
    {"program": st.sampled_from(["Raft", "2PhaseCommit", "tests.machines:Ping"])},
    optional={
        "payload": JSON_VALUES,
        "strategy": st.one_of(st.none(), SPELLINGS),
        "specs": st.one_of(st.none(), st.lists(SPELLINGS, min_size=1, max_size=3)),
        "seed": st.one_of(st.none(), st.integers(-5, 2 ** 40)),
        "max_iterations": st.integers(1, 10 ** 6),
        "time_limit": st.one_of(st.none(), DURATIONS),
        "max_steps": st.integers(1, 10 ** 6),
        "stop_on_first_bug": st.booleans(),
        "livelock_as_bug": st.booleans(),
        "record_traces": st.booleans(),
        "workers": st.sampled_from(["auto", "inline"]),
        "monitors": st.lists(st.just(ElectionSafetyMonitor), max_size=1),
        "max_hot_steps": st.integers(1, 5000),
        "portfolio_workers": st.integers(1, 9),
        "start_method": st.sampled_from([None, "fork", "spawn"]),
        "faults": st.one_of(st.none(), FAULTS),
        "iteration_timeout": st.one_of(st.none(), DURATIONS),
        "coverage": st.booleans(),
        "events_path": st.one_of(st.none(), st.just("/tmp/e.jsonl"), st.just(Path("/tmp/p"))),
        "reduction": st.sampled_from(["none", "dpor", "dpor+state-cache"]),
        "state_cache_size": st.integers(1, 1 << 20),
    },
).map(lambda kwargs: TestConfig(**kwargs))


# ---------------------------------------------------------------------------
# The table against the hand-written codec
# ---------------------------------------------------------------------------
@SETTINGS
@given(config=CONFIGS)
def test_table_codec_equals_the_hand_written_one(config):
    document = config.to_json_obj()
    assert document == reference.to_json_obj(config)
    assert json.loads(config.to_json()) == document  # plain data
    assert reference.from_json_obj(TestConfig, document) == config


@SETTINGS
@given(config=CONFIGS)
def test_decode_inverts_encode(config):
    assert TestConfig.from_json_obj(config.to_json_obj()) == config
    assert TestConfig.from_json(config.to_json()) == config
    # The constructor is the decoder: canonical values pass unchanged.
    assert dataclasses.replace(config) == config
    if config.faults is not None:
        assert FaultConfig.decode(config.faults.encode()) == config.faults


@SETTINGS
@given(config=CONFIGS, data=st.data())
def test_partial_documents_and_cli_spellings_read_like_the_hand_written_decoder(config, data):
    document = config.to_json_obj()
    optional = sorted(set(document) - {"version", "program"})
    for name in data.draw(st.lists(st.sampled_from(optional), unique=True)):
        del document[name]
    if document.get("strategy") is not None and data.draw(st.booleans()):
        document["strategy"] = cli_spelling(StrategySpec.decode(document["strategy"]))
    if document.get("specs") and data.draw(st.booleans()):
        document["specs"][0] = {"name": document["specs"][0]["name"], "params": None}
    assert TestConfig.from_json_obj(document) == reference.from_json_obj(
        TestConfig, document
    )


def test_golden_campaign_is_byte_identical(tmp_path):
    text = GOLDEN.read_text(encoding="utf-8")
    assert golden_config().to_json() + "\n" == text
    golden_config().save(tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == GOLDEN.read_bytes()
    assert TestConfig.load(GOLDEN) == golden_config()
    assert json.loads(text)["version"] == 1


@pytest.mark.parametrize("dropped", [name for name, _ in TestConfig.FIELDS])
def test_dropping_any_field_line_is_caught(monkeypatch, dropped):
    """The mutation the module docstring names, applied."""
    config = golden_config()
    monkeypatch.setattr(
        TestConfig, "FIELDS",
        tuple((name, rule) for name, rule in TestConfig.FIELDS if name != dropped),
    )
    assert config.to_json_obj() != reference.to_json_obj(config)
    assert config.to_json() + "\n" != GOLDEN.read_text(encoding="utf-8")
    with pytest.raises(DocumentError, match=f"unknown field.*{dropped}"):
        TestConfig.from_json_obj(reference.to_json_obj(config))


def test_every_field_is_declared_with_a_rule_but_the_runtime_factory():
    declared = [name for name, _ in TestConfig.FIELDS]
    every = [f.name for f in dataclasses.fields(TestConfig)]
    assert [name for name in every if name not in declared] == ["runtime_factory"]
    assert declared == list(reference._JSON_FIELDS)
    assert [name for name, _ in FaultConfig.FIELDS] == list(reference._FAULT_JSON_FIELDS)
    assert [name for name, _ in StrategySpec.FIELDS] == ["name", "params"]
    assert TestConfig.OPTIONAL == set(declared) - {"program"}


# ---------------------------------------------------------------------------
# Documents that loaded at the parent still load, to the same config
# ---------------------------------------------------------------------------
def campaign_documents():
    """Every campaign heredoc in the docs and the CI workflow."""
    found = {}
    for relative in ("docs/cli.md", ".github/workflows/ci.yml"):
        text = (ROOT / relative).read_text(encoding="utf-8")
        blocks = re.findall(r"<<'EOF'\n(\s*\{.*?\n\s*\})\n\s*EOF", text, re.DOTALL)
        for index, block in enumerate(blocks):
            document = json.loads(block)
            if "version" in document and "program" in document:
                found[f"{relative}#{index}"] = document
    return found


def test_the_documented_campaign_files_are_found():
    assert len(campaign_documents()) >= 2


@pytest.mark.parametrize("where", sorted(campaign_documents()))
def test_documented_campaign_files_load_as_they_did(where):
    document = campaign_documents()[where]
    config = TestConfig.from_json_obj(document)
    assert config == reference.from_json_obj(TestConfig, document)
    assert TestConfig.from_json_obj(config.to_json_obj()) == config


# ---------------------------------------------------------------------------
# Typed at the boundary — the constructor and the document alike
# ---------------------------------------------------------------------------
MISTYPED = {
    "max_iterations": (5.5, "TestConfig.max_iterations: expected integer >= 1, got 5.5"),
    "seed": ("abc", "TestConfig.seed: expected integer or null, got 'abc'"),
    "start_method": ("bogus", "TestConfig.start_method: expected one of .* or null, got 'bogus'"),
    "coverage": ("no", "TestConfig.coverage: expected boolean, got 'no'"),
    "stop_on_first_bug": ("false", "TestConfig.stop_on_first_bug: expected boolean, got 'false'"),
    "max_steps": (True, "TestConfig.max_steps: expected integer >= 1, got True"),
    "events_path": (7, "TestConfig.events_path"),
    "time_limit": ("60", "TestConfig.time_limit: expected finite number > 0 or null"),
    "monitors": (None, "TestConfig.monitors: expected an array"),
    "state_cache_size": (0, "TestConfig.state_cache_size: expected integer >= 1, got 0"),
    "reduction": ("dpor+", "TestConfig.reduction: expected one of none, dpor"),
}


@pytest.mark.parametrize("name", sorted(MISTYPED))
def test_a_mistyped_field_is_one_typed_line_never_a_coercion(name, tmp_path):
    value, message = MISTYPED[name]
    with pytest.raises(PSharpError, match=message) as document_error:
        TestConfig.from_json_obj({"version": 1, "program": "Raft", name: value})
    assert "\n" not in str(document_error.value)
    with pytest.raises(PSharpError, match=message) as constructor_error:
        TestConfig("Raft", **{name: value})
    assert str(constructor_error.value) == str(document_error.value)
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"version": 1, "program": "Raft", name: value}))
    with pytest.raises(PSharpError, match=message):
        TestConfig.load(path)


def test_nested_errors_name_the_path_to_the_field():
    with pytest.raises(DocumentError) as info:
        TestConfig.from_json_obj(
            {"version": 1, "program": "Raft", "faults": {"crash": 2}}
        )
    assert str(info.value) == (
        "TestConfig.faults: FaultConfig.crash: expected number in [0, 1], got 2"
    )
    with pytest.raises(DocumentError, match=r"TestConfig.specs: StrategySpec.params: "):
        TestConfig("Raft", specs=[{"name": "pct", "params": [1]}])
    with pytest.raises(DocumentError, match="TestConfig: field 'program' is missing"):
        TestConfig.from_json_obj({"version": 1})
    with pytest.raises(ValueError, match="FaultConfig.max_faults: expected integer >= 0"):
        FaultConfig(max_faults=1.0)
    with pytest.raises(PSharpError, match="StrategySpec.name: expected string, got 3"):
        StrategySpec(3)


# ---------------------------------------------------------------------------
# A knob is one line
# ---------------------------------------------------------------------------
@record(frozen=True)
class Extended(TestConfig):
    retries: int = field(keep(COUNT), 0)  # the one line


def test_a_field_added_in_one_line_validates_ships_and_fingerprints():
    config = Extended("Raft", retries=3)
    with pytest.raises(PSharpError, match="Extended.retries: expected integer >= 0, got -1"):
        Extended("Raft", retries=-1)
    with pytest.raises(PSharpError, match="Extended.retries: expected integer >= 0, got '3'"):
        config.with_overrides(retries="3")
    document = config.to_json_obj()
    assert document["retries"] == 3
    assert Extended.from_json_obj(document) == config
    assert Extended.from_json(config.to_json()) == config
    assert Extended.from_json_obj({"version": 1, "program": "Raft"}).retries == 0
    with pytest.raises(PSharpError, match="Extended.retries"):
        Extended.from_json_obj({**document, "retries": True})
    with pytest.raises(PSharpError, match="unknown field.*'retries'"):
        TestConfig.from_json_obj(document)
    # Identity by default: nobody listed it anywhere.
    assert config_fingerprint(config) != config_fingerprint(config.with_overrides(retries=4))
    assert config_fingerprint(config) == config_fingerprint(Extended("Raft", retries=3))


# ---------------------------------------------------------------------------
# The checkpoint fingerprint is derived
# ---------------------------------------------------------------------------
IDENTITY = {
    "program": "BoundedAsync", "payload": [1], "seed": 3, "max_iterations": 9,
    "max_steps": 9, "stop_on_first_bug": False, "livelock_as_bug": True,
    "record_traces": False, "workers": "inline",
    "monitors": (ElectionSafetyMonitor,), "max_hot_steps": 5,
    "faults": FaultConfig(drop=0.5), "coverage": True,
    "reduction": "dpor+state-cache", "state_cache_size": 7,
}
#: What the parent's hand-picked tuple left out (ISSUE 21, Motivation).
BLIND_AT_THE_PARENT = {
    "payload", "livelock_as_bug", "record_traces", "monitors", "max_hot_steps",
    "reduction", "state_cache_size",
}
NOT_IDENTITY_VALUES = {
    "strategy": "dfs", "specs": ("dfs",), "portfolio_workers": 2, "time_limit": 3,
    "iteration_timeout": 2.0, "start_method": "spawn", "events_path": "/tmp/x",
}


def test_every_declared_field_is_identity_or_named_as_not():
    declared = {name for name, _ in TestConfig.FIELDS}
    assert set(IDENTITY) | set(NOT_IDENTITY_VALUES) == declared
    assert set(NOT_IDENTITY_VALUES) == NOT_IDENTITY <= declared


@pytest.mark.parametrize("name", sorted(IDENTITY))
def test_an_identity_field_changes_the_fingerprint(name):
    base = TestConfig("Raft")
    changed = base.with_overrides(**{name: IDENTITY[name]})
    assert config_fingerprint(changed) != config_fingerprint(base)
    blind = reference.config_fingerprint(changed) == reference.config_fingerprint(base)
    assert blind == (name in BLIND_AT_THE_PARENT)


@pytest.mark.parametrize("name", sorted(NOT_IDENTITY_VALUES))
def test_a_field_that_is_not_identity_does_not(name):
    base = TestConfig("Raft")
    changed = base.with_overrides(**{name: NOT_IDENTITY_VALUES[name]})
    assert config_fingerprint(changed) == config_fingerprint(base)


def test_a_config_that_cannot_serialize_still_fingerprints():
    class Local(Ping):
        pass

    class Other(Ping):
        pass

    def factory(*args, **kwargs):
        raise AssertionError("never built here")

    config = TestConfig(Local, payload={1, 2}, monitors=(Local,), runtime_factory=factory)
    with pytest.raises(PSharpError):
        config.to_json_obj()
    fingerprint = config_fingerprint(config)
    assert fingerprint == config_fingerprint(dataclasses.replace(config))
    assert fingerprint == config_fingerprint(config.with_overrides(runtime_factory=None))
    assert fingerprint != config_fingerprint(config.with_overrides(program=Other))
    assert fingerprint != config_fingerprint(config.with_overrides(payload={1, 3}))
    # A class program and its import path are one identity.
    assert config_fingerprint(TestConfig(Ping)) == config_fingerprint(
        TestConfig("tests.machines:Ping")
    )
    # Equal payloads spelled in another key order are one identity too.
    assert config_fingerprint(TestConfig("Raft", payload={"a": 1, "b": 2})) == (
        config_fingerprint(TestConfig("Raft", payload={"b": 2, "a": 1}))
    )
