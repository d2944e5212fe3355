"""Property: any scenario text either is rejected with `ScenarioError`
naming its fields or runs. Values are drawn from each key's declared range,
at its edges, just outside it, and from nan, infinities, negatives and text
that is no number; the work bounds keep every accepted draw small."""

import dataclasses
import math
from dataclasses import replace

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from vhsim.cli import SCENARIO_KEYS, ScenarioError, parse_scenario  # noqa: E402
from vhsim.simulation import ScenarioConfig, run_trial  # noqa: E402

JUNK = st.sampled_from(["", "abc", "1,5", "0x10", "1.5.2"])


def value_text(f: dataclasses.Field, inside_only: bool) -> st.SearchStrategy[str]:
    """Text for a key's value: inside its range, or anywhere and malformed."""
    meta = f.metadata
    kind = meta["type"]
    if kind is bool:
        words = st.sampled_from(["true", "false", "yes", "no", "1", "0"])
        return words if inside_only else st.one_of(words, JUNK)
    if kind is str:
        return st.sampled_from(meta["choices"]) if inside_only else st.one_of(st.just("mars"), JUNK)
    low = meta["ge"] if meta["ge"] is not None else meta["gt"]
    high = meta["le"]
    if kind is int:
        inside = st.integers(low, min(high, low + 1000)) | st.sampled_from([low, high])
        outside = st.sampled_from([low - 1, high + 1, -1])
    else:
        # an open lower bound is excluded from the range but kept as an edge
        inside = st.floats(low, high, exclude_min=meta["gt"] is not None) | st.sampled_from([high])
        outside = st.one_of(
            st.floats(high, 10.0 * high, exclude_min=True),
            st.floats(-10.0 * high, low),
            st.sampled_from([low, -1.0, math.nan, math.inf, -math.inf]),
        )
    return inside.map(repr) if inside_only else st.one_of(outside.map(repr), JUNK)


FIELDS = dataclasses.fields(ScenarioConfig)
INSIDE = {f.name: value_text(f, inside_only=True) for f in FIELDS}
ANYWHERE = {f.name: value_text(f, inside_only=False) for f in FIELDS}
# a few keys inside their ranges (which may still break a rule between keys
# or a work bound), plus at most one key outside its range or malformed
SCENARIOS = st.tuples(
    st.lists(st.sampled_from(SCENARIO_KEYS), max_size=4, unique=True).flatmap(
        lambda keys: st.fixed_dictionaries({key: INSIDE[key] for key in keys})
    ),
    st.sampled_from(SCENARIO_KEYS).flatmap(lambda key: st.fixed_dictionaries({key: ANYWHERE[key]})) | st.just({}),
).map(lambda parts: {**parts[0], **parts[1]})


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(derandomize=True, deadline=None, database=None, max_examples=1000)
@given(SCENARIOS)
def test_scenario_is_rejected_by_name_or_runs(values):
    text = "".join(f"{key}: {raw}\n" for key, raw in values.items())
    try:
        config = parse_scenario(text)
    except ScenarioError as exc:
        named = str(exc).split(":", 1)[0].split(", ")
        assert set(named) <= set(SCENARIO_KEYS), str(exc)
        return
    metrics = run_trial(replace(config, duration=3 * config.dt))
    assert metrics.duration == pytest.approx(3 * config.dt)
