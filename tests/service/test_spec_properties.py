"""Generated-input tests for the ``JobSpec`` wire format and field rules.

Every valid spec survives ``to_json``/``from_json`` (through real JSON
text, as a spool file carries it) under the same content address, and
every wrong-typed or out-of-range number is a ``ValueError`` naming the
field — at construction, never as a traceback from a pool worker.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import JobSpec
from repro.service.spool import SpoolClient, SpoolServer
from repro.suite import BENCHMARK_NAMES

from .test_spec import DECK

#: field -> smallest accepted value (``None``: any integer).
MINIMUM = {"n_atoms": 1, "steps": 1, "workers": 1, "checkpoint_every": 0, "seed": None}

_common = dict(
    n_atoms=st.integers(1, 10**7),
    seed=st.none() | st.integers(-(2**31), 2**63),
    precision=st.sampled_from(["single", "mixed", "double", "DOUBLE"]),
    backend=st.sampled_from([None, "numpy_fast", "numpy_ref"]),
    workers=st.integers(1, 64),
    fault_plan=st.none() | st.just("kill:1:7"),
    checkpoint_every=st.integers(0, 10**6),
    tag=st.none() | st.text(max_size=8),
)
valid_specs = st.builds(
    JobSpec,
    benchmark=st.sampled_from(BENCHMARK_NAMES),
    steps=st.integers(1, 10**9),
    **_common,
) | st.builds(
    JobSpec, deck=st.just(DECK), steps=st.none() | st.integers(1, 10**9), **_common
)


@settings(max_examples=80, deadline=None)
@given(valid_specs)
def test_wire_roundtrip_keeps_spec_and_address(spec):
    wired = JobSpec.from_json(json.loads(json.dumps(spec.to_json())))
    assert wired == spec
    assert wired.cache_key() == spec.cache_key()


def _bad_values(minimum):
    wrong_type = st.sampled_from(["2", True, False, 2.7, float("nan"), float("inf"), [3]])
    if minimum is None:
        return wrong_type
    return wrong_type | st.integers(max_value=minimum - 1)


bad_fields = st.sampled_from(sorted(MINIMUM)).flatmap(
    lambda name: st.tuples(st.just(name), _bad_values(MINIMUM[name]))
)


@settings(max_examples=80, deadline=None)
@given(bad_fields)
def test_bad_number_is_a_value_error_naming_the_field(bad):
    name, value = bad
    with pytest.raises(ValueError, match=name):
        JobSpec(benchmark="lj", **{name: value})
    with pytest.raises(ValueError, match=name):
        JobSpec.from_json({"deck": DECK, name: value})


@pytest.mark.parametrize(
    "fields, named",
    [
        (dict(n_atoms=-5), "n_atoms"),  # died in a worker: TypeError ... complex
        (dict(workers="2"), "workers"),  # '>' not supported between str and int
        (dict(steps=2.7), "steps"),  # ran 2 steps under the address of steps=2
        (dict(n_atoms=0), "n_atoms"),  # a neighbor-list ValueError about the box
    ],
)
def test_reported_cases(fields, named):
    with pytest.raises(ValueError, match=named):
        JobSpec(benchmark="lj", **fields)


def test_integral_values_are_normalised_to_int():
    import numpy as np

    spec = JobSpec(benchmark="lj", n_atoms=np.int64(500), steps=100.0, seed=np.int32(1))
    assert [type(v) for v in (spec.n_atoms, spec.steps, spec.seed)] == [int] * 3
    assert spec == JobSpec(benchmark="lj", n_atoms=500, steps=100, seed=1)
    assert spec.cache_key() == JobSpec(benchmark="lj", seed=1).cache_key()


def test_hand_edited_spool_file_gets_a_bad_request_reply(tmp_path):
    """``workers: "2"`` in a spool file is answered, not run."""
    client = SpoolClient(tmp_path)
    ticket = client.submit(JobSpec(benchmark="lj", n_atoms=150, steps=4))
    pending = next((tmp_path / "pending").glob("*.json"))
    request = json.loads(pending.read_text())
    request["spec"]["workers"] = "2"
    pending.write_text(json.dumps(request))

    class NeverSubmits:
        def submit(self, spec):  # pragma: no cover - must not be reached
            raise AssertionError(f"bad spec reached the service: {spec}")

    server = SpoolServer(tmp_path, NeverSubmits())
    server.step()
    reply = json.loads((tmp_path / "tickets" / f"{ticket}.json").read_text())
    assert reply["status"] == "failed"
    assert reply["error"].startswith("bad request:") and "workers" in reply["error"]
