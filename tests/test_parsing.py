"""Property tests: every --times, flow-spec and model-spec string either parses
or raises ValueError (which the CLI turns into exit 1 and a one-line error).

Numbers come from short token lists, and free text has no digits, so every
mesh a flow spec builds stays small and no --times range exceeds ~10^4
samples.
"""

import math
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sobolab.cli import MAX_TIME_SAMPLES, _parse_times
from sobolab import flow
from sobolab.flow import ExactFlow, parse_flow_spec
from sobolab.manifold import (MEMORY_BUDGET, SPEC_KEYS, ModelSpec,
                              parse_model_spec)

GARBAGE = st.text(alphabet=st.characters(blacklist_categories=("Nd", "Cs")),
                  max_size=8)
NUMBER = st.sampled_from(["0", "1", "2", "3", "-1", "0.5", "1e-3", "2.5", "nan",
                          "inf", "-inf", "1e400", "", " 2", "x", "1x2",
                          "2x2x2"]) | GARBAGE
TIME = st.floats(-5.0, 5.0).map(repr) | NUMBER
STEP = st.floats(0.05, 5.0).map(repr) | NUMBER  # smallest step 1e-3
TIMES = (st.builds("{}:{}:{}".format, TIME, TIME, STEP)
         | st.lists(TIME, max_size=4).map(":".join)
         | st.lists(TIME, max_size=4).map(",".join))


def spec_strings(heads, keys):
    item = st.builds("{}={}".format, st.sampled_from(keys), NUMBER) | GARBAGE
    return st.builds(lambda head, sep, items: head + sep + ",".join(items),
                     st.sampled_from(heads) | GARBAGE,
                     st.sampled_from([":", "", "::"]),
                     st.lists(item, max_size=4))


@given(TIMES)
@example("1:2")
@example("abc:1:2")
def test_parse_times_parses_or_raises_value_error(text):
    try:
        times = _parse_times(text)
    except ValueError as err:
        assert "--times" in str(err)
        return
    assert all(math.isfinite(t) for t in times)


@settings(deadline=None, max_examples=60)
@given(spec_strings(["sphere", "torus", "box"],
                    ["r0", "r", "subdiv", "n", "res", "L", "bogus"]))
def test_parse_flow_spec_parses_or_raises_value_error(text):
    try:
        flow = parse_flow_spec(text)
    except ValueError:
        return
    assert isinstance(flow, ExactFlow)
    assert all(math.isfinite(x) for x in flow.base.points.ravel())


@given(spec_strings(["sphere", "torus", "box", " torus"],
                    ["n", "res", "subdiv", "r", "r0", "scale", "L", "bogus"]))
def test_parse_model_spec_parses_or_raises_value_error(text):
    try:
        spec = parse_model_spec(text)
    except ValueError:
        return
    assert isinstance(spec, ModelSpec)
    assert all(math.isfinite(x) for x in (spec.radius, spec.scale, *spec.sides))


@pytest.mark.parametrize("parse, text, count", [
    (parse_model_spec, "sphere:r=1,subdiv=16", "10*4^16+2 = 42949672962"),
    (parse_model_spec, "torus:n=40,res=2", "2^40 = 1099511627776"),
    (parse_flow_spec, "sphere:r0=1,subdiv=6", "10*4^6+2 = 40962"),
    (parse_model_spec, "torus:n=1,res=257", "257^1 = 257"),
    (parse_model_spec, "box:n=2,res=257", "257^2 = 66049"),
    (parse_model_spec, "torus:n=2,res=512", "512^2 = 262144"),
    (parse_flow_spec, "torus:n=1,res=300", "300^1 = 300"),
])
def test_specs_over_the_node_guard_are_refused_before_building(parse, text,
                                                               count):
    with pytest.raises(ValueError, match="axis guard|memory budget") as err:
        parse(text)
    assert count in str(err.value) and "\n" not in str(err.value)


@pytest.mark.parametrize("text", ["torus:n=3,res=6,bogus=1", "sphere:subdiv=6",
                                  "torus:n=1,res=300",
                                  "torus:n=1000000,res=1,L=1",
                                  "sphere:r=1,L=5",
                                  "torus:n=2,res=8,r=7,subdiv=9",
                                  "torus:subdiv=8", "box:n=2,res=8,r0=2"])
def test_flow_and_model_specs_share_one_grammar(text):
    """A flow spec is a model spec: both parsers refuse a bad string with the
    same one-line error.  A sphere takes r/r0, subdiv and scale, a grid n,
    res, L and scale; any other key is named with the variant."""
    errors = []
    for parse in (parse_flow_spec, parse_model_spec):
        with pytest.raises(ValueError) as err:
            parse(text)
        errors.append(str(err.value))
    assert errors[0] == errors[1] and "\n" not in errors[0]
    if "option" in errors[0]:  # each unknown key is named with the variant
        variant, _, rest = text.partition(":")
        keys = [item.partition("=")[0] for item in rest.split(",")]
        assert variant in errors[0]
        assert all(repr(k) in errors[0] for k in keys
                   if k not in SPEC_KEYS[variant])


@pytest.mark.parametrize("text", ["box:n=1,res=8", "sphere:r0=1,scale=2",
                                  "torus:n=2,res=8,scale=2"])
def test_specs_without_an_exact_flow_are_refused_before_building(monkeypatch,
                                                                 text):
    def refuse(*args, **kwargs):
        raise AssertionError("model built before the flow spec was checked")

    monkeypatch.setattr(flow, "build", refuse)
    with pytest.raises(ValueError, match="flow") as err:
        parse_flow_spec(text)
    assert "\n" not in str(err.value)


def test_memory_budget_bounds_every_job_before_building():
    """One byte budget bounds the predicted peak of a job: a sphere's dense
    solve in its mirror blocks or a grid's per-axis matrices, a few chunks
    of members and the values kept per member.  It admits every sphere
    through subdivision 5, every box through 4000 nodes, the 256^2 box and
    torus (no dense term on a grid) and the torus at a million members, and
    refuses the rest with one line naming the predicted bytes and the
    budget."""
    budget = f"over the memory budget of {MEMORY_BUDGET / 1e9:g} GB"
    for members in (200, 256, 954, 10 ** 6):
        assert parse_model_spec("torus:n=2,res=256", members=members)
    for subdiv in range(1, 6):
        assert parse_model_spec(f"sphere:subdiv={subdiv}", members=200)
    for n in range(1, 12):
        res = max(r for r in range(2, 4001) if r ** n <= 4000)
        assert parse_model_spec(f"box:n={n},res={res}", members=200)
    for text in ("box:n=3,res=20", "box:n=14,res=2", "box:n=2,res=256"):
        assert parse_model_spec(text, members=200)
    for parse, text, members in [(parse_model_spec, "sphere:subdiv=6", 1),
                                 (parse_model_spec, "box:n=3,res=256", 1),
                                 (parse_model_spec, "torus:n=2,res=256", 10 ** 7),
                                 (parse_model_spec, "torus:n=2,res=256", 10 ** 9),
                                 (parse_model_spec, "torus:n=2,res=16", 10 ** 9),
                                 (parse_model_spec, "sphere:r=1,subdiv=2", 10 ** 9),
                                 (parse_flow_spec, "torus:n=3,res=6", 10 ** 9),
                                 (parse_flow_spec, "sphere:r0=1,subdiv=2", 10 ** 9)]:
        with pytest.raises(ValueError, match="needs a predicted") as err:
            parse(text, members=members)
        assert budget in str(err.value) and "\n" not in str(err.value)
    with pytest.raises(ValueError, match="2\\^300 nodes times 1 members"):
        parse_model_spec("torus:n=300,res=2")

@pytest.mark.parametrize("parse, text", [
    (parse_model_spec, "torus:n=1000000,res=1,L=1"),
    (parse_model_spec, "box:n=1000000,res=0,L=2"),
    (parse_model_spec, "sphere:n=1000000,subdiv=1,L=1"),
    (parse_model_spec, "cube:n=1000000,res=1,L=1"),
    (parse_flow_spec, "torus:n=1000000,res=1,L=1"),
])
def test_one_side_length_is_not_repeated_for_an_invalid_spec(parse, text):
    """A one-value L is repeated once per axis only after the variant and
    resolution are valid, so a huge n costs nothing when res < 2."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            parse(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 6  # a million-entry tuple would take 8 MB


@pytest.mark.parametrize("text", ["0:1:1e-320", "0:1:1e-12"])
def test_time_range_sample_count_is_bounded_before_the_list(text):
    """1/1e-320 overflows to inf and 1/1e-12 asks for 10^12 samples; both
    are refused from the sample count, before any list exists."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as err:
            _parse_times(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 6
    assert str(MAX_TIME_SAMPLES) in str(err.value) and "\n" not in str(err.value)
    assert len(_parse_times("0:0.4:0.05")) == 9
