"""The state table and the ``Stateful`` declarations are complete.

``STATE_ARRAYS`` is the only list of an ``AtomSystem``'s arrays that
snapshots, the digest, the precision cast and ``copy`` read, so an array
attribute without a row would silently fall out of all four.  Likewise
each ``Stateful`` class's ``STATE`` is all a checkpoint carries of it.
"""

import importlib
import json
import pkgutil

import numpy as np
import pytest

import repro.md
from repro.md.constraints import ShakeConstraints
from repro.md.fixes import (
    BerendsenThermostat,
    BottomWall,
    Gravity,
    LangevinThermostat,
    VelocityRescale,
)
from repro.md.integrators import NoseHooverNPT, NoseHooverNVT, VelocityVerletNVE
from repro.md.restart import save_snapshot
from repro.md.state import STATE_ARRAYS, Stateful, json_default
from repro.suite import get_benchmark

#: How to build one of each concrete ``Stateful`` class under repro.md.
FACTORIES = {
    VelocityVerletNVE: VelocityVerletNVE,
    NoseHooverNVT: lambda: NoseHooverNVT(1.0, 0.5),
    NoseHooverNPT: lambda: NoseHooverNPT(1.0, 0.5, 1.0, 2.0),
    LangevinThermostat: lambda: LangevinThermostat(
        1.0, 0.5, np.random.default_rng(5)
    ),
    Gravity: Gravity,
    BottomWall: BottomWall,
    BerendsenThermostat: lambda: BerendsenThermostat(1.0, 0.5),
    VelocityRescale: lambda: VelocityRescale(1.0),
    ShakeConstraints: lambda: ShakeConstraints([[0, 1]], [1.0]),
}


def _stateful_classes():
    for info in pkgutil.walk_packages(repro.md.__path__, "repro.md."):
        importlib.import_module(info.name)
    found, pending = set(), [Stateful]
    while pending:
        for sub in pending.pop().__subclasses__():
            pending.append(sub)
            if sub.__module__.startswith("repro.md.") and not getattr(
                sub, "__abstractmethods__", None
            ):
                found.add(sub)
    return found


def _json(state):
    return json.loads(json.dumps(state, default=json_default))


class TestStateArrays:
    def test_every_array_attribute_has_a_row(self):
        """Granular chute (radii/omega/torques) and bonded rhodo
        (topology) between them hold every optional array."""
        paths = {row.path for row in STATE_ARRAYS}
        for name in ("chute", "rhodo"):
            system = get_benchmark(name).build(300).system
            owners = {"": system, "box.": system.box, "topology.": system.topology}
            for prefix, owner in owners.items():
                for attr, value in vars(owner).items():
                    if isinstance(value, np.ndarray):
                        assert prefix + attr in paths, (name, prefix + attr)

    def test_rows_are_unique(self):
        assert len({row.name for row in STATE_ARRAYS}) == len(STATE_ARRAYS)
        assert len({row.path for row in STATE_ARRAYS}) == len(STATE_ARRAYS)

    def test_npz_member_order(self, tmp_path):
        """Header, then the table's rows, then neighbor build state,
        contact histories and the JSON state — the snapshot byte order."""
        sim = get_benchmark("chute").build(300)
        sim.run(8)
        path = save_snapshot(sim, tmp_path / "chute.npz")
        with np.load(path) as data:
            members = list(data.files)
        header = ["format_version", "step_number", "potential_energy", "virial"]
        rows = [row.name for row in STATE_ARRAYS]
        tail = members[len(header) + len(rows):]
        assert members[: len(header)] == header
        assert members[len(header): len(header) + len(rows)] == rows
        assert tail[:2] == ["neigh_positions_at_build", "neigh_box_lengths_at_build"]
        assert tail[2:-1] and all(name.startswith("hist") for name in tail[2:-1])
        assert tail[-1] == "state_json"


class TestStateful:
    def test_every_class_has_a_factory(self):
        assert _stateful_classes() == set(FACTORIES)

    @pytest.mark.parametrize("cls", list(FACTORIES), ids=lambda c: c.__name__)
    def test_round_trip_through_json(self, cls):
        source = FACTORIES[cls]()
        state = _json(source.state_dict())
        assert list(state) == list(cls.STATE)
        target = FACTORIES[cls]()
        target.load_state_dict(state)
        assert _json(target.state_dict()) == state

    @pytest.mark.parametrize("cls", list(FACTORIES), ids=lambda c: c.__name__)
    def test_missing_or_extra_key_is_refused(self, cls):
        obj = FACTORIES[cls]()
        state = _json(obj.state_dict())
        with pytest.raises(ValueError, match="carries state"):
            obj.load_state_dict({**state, "unexpected": 0})
        for key in state:
            partial = {k: v for k, v in state.items() if k != key}
            with pytest.raises(ValueError, match=key):
                obj.load_state_dict(partial)
