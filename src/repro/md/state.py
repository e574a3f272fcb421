"""The simulation's state, declared once.

Snapshots, the certification digest, the precision cast and
:meth:`~repro.md.atoms.AtomSystem.copy` read these two declarations
instead of listing fields of their own:

* :data:`STATE_ARRAYS` — one ordered row per array of an
  :class:`~repro.md.atoms.AtomSystem`.  Row order is the snapshot's npz
  member order, and the digested rows, in that order, are the interval
  digest's hash order, so this table fixes both byte streams.
* :class:`Stateful` — the scalar state of integrators, fixes and
  constraints, declared per class as ``STATE = {key: attribute path}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

import numpy as np

__all__ = ["STATE_ARRAYS", "StateArray", "Stateful", "held_arrays", "json_default"]


def _assign(obj, path: str, value) -> None:
    owner, _, name = path.rpartition(".")
    setattr(attrgetter(owner)(obj) if owner else obj, name, value)


@dataclass(frozen=True)
class StateArray:
    """One array of an :class:`~repro.md.atoms.AtomSystem`.

    ``name`` is its snapshot member and ``path`` its attribute path from
    the system.  ``restored``: a restart writes it into the live system;
    the other rows describe *which* system it is, so a restore requires
    them to match.  ``storage``: held in the precision's storage dtype.
    ``digested``: enters the interval digest.  The granular rows
    (``radii``, ``omega``, ``torques``) are ``None`` on point particles.
    """

    name: str
    path: str
    restored: bool = False
    storage: bool = False
    digested: bool = False

    def get(self, system):
        return attrgetter(self.path)(system)

    def set(self, system, value) -> None:
        _assign(system, self.path, value)


STATE_ARRAYS: tuple[StateArray, ...] = (
    StateArray("box_lengths", "box.lengths", restored=True, digested=True),
    StateArray("box_periodic", "box.periodic"),
    StateArray("box_origin", "box.origin"),
    StateArray("positions", "positions", restored=True, storage=True, digested=True),
    StateArray("velocities", "velocities", restored=True, storage=True, digested=True),
    StateArray("forces", "forces", restored=True, storage=True, digested=True),
    StateArray("images", "images", restored=True),
    StateArray("masses", "masses"),
    StateArray("types", "types"),
    StateArray("charges", "charges"),
    StateArray("molecule_ids", "molecule_ids"),
    StateArray("bonds", "topology.bonds"),
    StateArray("bond_types", "topology.bond_types"),
    StateArray("angles", "topology.angles"),
    StateArray("angle_types", "topology.angle_types"),
    StateArray("radii", "radii"),
    StateArray("omega", "omega", restored=True, storage=True, digested=True),
    StateArray("torques", "torques", restored=True, storage=True, digested=True),
)


def held_arrays(system, flag: str | None = None):
    """Yield ``(row, array)`` for each row ``system`` holds, in table
    order; with ``flag`` (``"restored"``, ``"storage"``, ``"digested"``)
    only the rows that set it."""
    for row in STATE_ARRAYS:
        value = row.get(system)
        if value is not None and (flag is None or getattr(row, flag)):
            yield row, value


class Stateful:
    """Dynamical scalar state that a checkpoint must carry.

    A subclass declares ``STATE = {snapshot key: attribute path}``.
    Construction parameters (targets, damping times) stay out: a restart
    rebuilds the object from the deck and reloads only these variables,
    so restoring into a differently configured object is an error the
    snapshot layer detects via the type tag.
    """

    STATE: dict[str, str] = {}

    def state_dict(self) -> dict:
        return {key: attrgetter(path)(self) for key, path in self.STATE.items()}

    def load_state_dict(self, state: dict) -> None:
        """Restore what :meth:`state_dict` captured; the keys must match."""
        if set(state) != set(self.STATE):
            raise ValueError(
                f"{type(self).__name__} carries state {sorted(self.STATE)} "
                f"but the snapshot provides {sorted(state)}"
            )
        for key, path in self.STATE.items():
            _assign(self, path, state[key])


def json_default(obj):
    """``json.dumps(default=...)`` hook for numpy scalars and arrays."""
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")
