"""Simulation snapshot/restart serialization (format v2).

Production MD runs checkpoint their state; this module saves and loads
the *complete* dynamical state of a :class:`~repro.md.simulation.
Simulation` to a single ``.npz`` file, so a restart reproduces the
uninterrupted trajectory bit for bit on every suite benchmark — not
just plain NVE:

* particle state — positions, velocities, forces, images, box, charges,
  topology, granular radii/omega/torques — plus the step counter and
  the energy/virial the restored step already computed;
* integrator internals — Nose-Hoover thermostat friction ``zeta``,
  barostat strain rate ``eta`` and the virial feeding the next
  barostat half-step;
* fix internals — most notably the Langevin thermostat's RNG stream,
  restored bit-for-bit via the generator's bit-generator state;
* granular contact history — the tangential-displacement store of
  every ``gran/hooke/history`` potential (collected from the worker
  processes when running on the parallel engine);
* neighbor-list build state — the positions/box of the last rebuild,
  so the restored list has the *same pair ordering* (hence the same
  floating-point summation order) and the same rebuild cadence as the
  uninterrupted run, plus all bookkeeping counters.

Format v1 files (pre-reliability, particle state only) are detected
explicitly: :func:`restore_simulation` refuses them, because loading
one as if it were complete silently diverges for every thermostatted
or granular workload.  See ``docs/RELIABILITY.md`` for the layout.
"""

from __future__ import annotations

import json
import zipfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.atomicio import atomic_write
from repro.md.atoms import AtomSystem, Topology
from repro.md.box import Box
from repro.md.precision import parse_precision
from repro.md.simulation import Simulation

__all__ = [
    "FORMAT_VERSION",
    "Snapshot",
    "SnapshotError",
    "save_snapshot",
    "write_snapshot",
    "load_snapshot",
    "load_system",
    "restore_simulation",
]

FORMAT_VERSION = 2

#: Exceptions np.load / zip decompression raise on damaged files.
_IO_ERRORS = (
    OSError,
    KeyError,
    EOFError,
    ValueError,
    zipfile.BadZipFile,
    zlib.error,
)


class SnapshotError(ValueError):
    """A snapshot file is missing, damaged, or incompatible."""


@dataclass
class Snapshot:
    """A fully parsed snapshot file."""

    version: int
    step_number: int
    system: AtomSystem
    potential_energy: float | None = None
    virial: float | None = None
    #: Integrator/fix/constraint/counter state (empty for v1 files).
    state: dict = field(default_factory=dict)
    #: ``(positions_at_build, box_lengths_at_build)`` of the neighbor
    #: list, or ``None`` if the simulation was never set up.
    neighbor_build: tuple[np.ndarray, np.ndarray] | None = None
    #: Per-potential-slot granular contact histories ``(keys, values)``
    #: in canonical half-list orientation (``i < j``).
    histories: dict[int, tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict
    )


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def _dynamic_state(simulation: Simulation) -> dict:
    counts = simulation.counts
    return {
        "precision": simulation.precision.mode.value,
        "integrator": {
            "type": type(simulation.integrator).__name__,
            "state": simulation.integrator.state_dict(),
        },
        "fixes": [
            {"type": type(fix).__name__, "state": fix.state_dict()}
            for fix in simulation.fixes
        ],
        "constraints": (
            None
            if simulation.constraints is None
            else simulation.constraints.state_dict()
        ),
        "counts": {
            "timesteps": counts.timesteps,
            "pair_interactions": counts.pair_interactions,
            "bond_evaluations": counts.bond_evaluations,
            "kspace_grid_points": counts.kspace_grid_points,
            "neighbor_builds": counts.neighbor_builds,
            "shake_iterations": counts.shake_iterations,
        },
        "neighbor_stats": simulation.neighbor.stats.state_dict(),
    }


def snapshot_payload(simulation: Simulation) -> dict[str, np.ndarray]:
    """Assemble the npz payload for the simulation's current state.

    Exposed separately from :func:`save_snapshot` so the checkpoint
    manager can gather state (including the worker-history round-trip
    on the parallel engine) *before* opening the output file; either
    way :func:`write_snapshot` puts it on disk.
    """
    system = simulation.system
    payload: dict[str, np.ndarray] = {
        "format_version": np.array([FORMAT_VERSION]),
        "step_number": np.array([simulation.step_number]),
        "potential_energy": np.array([simulation.potential_energy]),
        "virial": np.array([simulation.virial]),
        "box_lengths": system.box.lengths,
        "box_periodic": system.box.periodic,
        "box_origin": system.box.origin,
        "positions": system.positions,
        "velocities": system.velocities,
        "forces": system.forces,
        "images": system.images,
        "masses": system.masses,
        "types": system.types,
        "charges": system.charges,
        "molecule_ids": system.molecule_ids,
        "bonds": system.topology.bonds,
        "bond_types": system.topology.bond_types,
        "angles": system.topology.angles,
        "angle_types": system.topology.angle_types,
    }
    if system.radii is not None:
        payload["radii"] = system.radii
        payload["omega"] = system.omega
        payload["torques"] = system.torques

    build_state = simulation.neighbor.export_build_state()
    if build_state is not None:
        payload["neigh_positions_at_build"] = build_state[0]
        payload["neigh_box_lengths_at_build"] = build_state[1]

    state = _dynamic_state(simulation)
    histories = simulation.force_executor.export_contact_histories()
    state["history_slots"] = sorted(histories)
    for slot, (keys, values) in histories.items():
        payload[f"hist{slot}_keys"] = np.asarray(keys, dtype=np.int64)
        payload[f"hist{slot}_values"] = np.asarray(values, dtype=float)

    encoded = json.dumps(state, default=_json_default).encode("utf-8")
    payload["state_json"] = np.frombuffer(encoded, dtype=np.uint8)
    return payload


def write_snapshot(handle, payload: dict[str, np.ndarray]) -> None:
    """Serialize a :func:`snapshot_payload` to an open binary file.

    The one place a snapshot's bytes are produced.  Members are *stored*,
    not deflated: the payload is float64 state whose mantissas do not
    compress (zlib took ~20x the write time to save under half the
    bytes on a 32k-atom checkpoint), and every zip member still carries
    its CRC-32.  ``np.load`` reads stored and deflated members alike, so
    files written before this was the case restore unchanged.  Takes a
    handle, not a path, because ``np.savez`` appends ".npz" to bare path
    names and callers (the checkpoint manager's temp file) need theirs
    kept exactly.
    """
    np.savez(handle, **payload)


def save_snapshot(simulation: Simulation, path: str | Path) -> Path:
    """Write the simulation's complete state to ``path`` (.npz, v2).

    The write is atomic (:func:`repro.atomicio.atomic_write`), like the
    :class:`repro.reliability.CheckpointManager`'s — same payload, same
    :func:`write_snapshot`: a crash mid-write leaves whatever ``path``
    held before.
    """
    payload = snapshot_payload(simulation)
    return atomic_write(path, lambda handle: write_snapshot(handle, payload))


def _system_from(data) -> tuple[AtomSystem, int]:
    box = Box(
        data["box_lengths"],
        periodic=data["box_periodic"],
        origin=data["box_origin"],
    )
    topology = Topology(
        bonds=data["bonds"],
        bond_types=data["bond_types"],
        angles=data["angles"],
        angle_types=data["angle_types"],
    )
    system = AtomSystem(
        data["positions"],
        box,
        velocities=data["velocities"],
        masses=data["masses"],
        types=data["types"],
        charges=data["charges"],
        topology=topology,
        radii=data["radii"] if "radii" in data else None,
        molecule_ids=data["molecule_ids"],
    )
    # Restore exact wrap/image state (the constructor re-wraps).
    system.positions = data["positions"].copy()
    system.images = data["images"].copy()
    system.forces = data["forces"].copy()
    if "omega" in data:
        system.omega = data["omega"].copy()
        system.torques = data["torques"].copy()
    step = int(data["step_number"][0])
    return system, step


def load_snapshot(path: str | Path) -> Snapshot:
    """Parse a snapshot file into a :class:`Snapshot`.

    Raises :class:`SnapshotError` for missing/truncated/corrupted files
    and unknown format versions, so callers (the recovery path walks a
    retention chain newest-first) can distinguish "bad file" from a
    programming error.
    """
    path = Path(path)
    try:
        with np.load(path) as data:
            version = int(data["format_version"][0])
            if version not in (1, FORMAT_VERSION):
                raise SnapshotError(
                    f"snapshot format v{version} unsupported (expected "
                    f"v1 or v{FORMAT_VERSION}): {path}"
                )
            system, step = _system_from(data)
            if version == 1:
                return Snapshot(version=1, step_number=step, system=system)

            state = json.loads(bytes(data["state_json"]).decode("utf-8"))
            neighbor_build = None
            if "neigh_positions_at_build" in data:
                neighbor_build = (
                    data["neigh_positions_at_build"].copy(),
                    data["neigh_box_lengths_at_build"].copy(),
                )
            histories = {
                int(slot): (
                    data[f"hist{slot}_keys"].copy(),
                    data[f"hist{slot}_values"].copy(),
                )
                for slot in state.get("history_slots", [])
            }
            return Snapshot(
                version=version,
                step_number=step,
                system=system,
                potential_energy=float(data["potential_energy"][0]),
                virial=float(data["virial"][0]),
                state=state,
                neighbor_build=neighbor_build,
                histories=histories,
            )
    except SnapshotError:
        raise
    except _IO_ERRORS as exc:
        raise SnapshotError(f"unreadable snapshot {path}: {exc!r}") from exc


def load_system(path: str | Path) -> tuple[AtomSystem, int]:
    """Rebuild the :class:`AtomSystem` and step counter from a snapshot.

    Works for v1 and v2 files — this accessor only surfaces particle
    state; use :func:`load_snapshot` for the dynamical extras.
    """
    snapshot = load_snapshot(path)
    return snapshot.system, snapshot.step_number


def _rebuild_neighbors_as_at_build(
    simulation: Simulation,
    at_positions: np.ndarray,
    at_lengths: np.ndarray,
) -> None:
    """Rebuild neighbor state from the configuration of the *original*
    build, so pair ordering and rebuild cadence match the uninterrupted
    run exactly.  The live particle state is swapped back afterwards."""
    system = simulation.system
    live_positions = system.positions
    live_lengths = system.box.lengths
    # Build-state positions keep the run's storage dtype (float32 under
    # SINGLE), so the rebuilt pair ordering matches the original build.
    system.positions = np.array(
        at_positions, dtype=simulation.precision.storage_dtype
    )
    system.box.lengths = np.array(at_lengths, dtype=float)
    try:
        simulation.force_executor.maintain_neighbors(system, force=True)
    finally:
        system.positions = live_positions
        system.box.lengths = live_lengths


def _check_tags(simulation: Simulation, state: dict, path: Path) -> None:
    saved = state["integrator"]["type"]
    have = type(simulation.integrator).__name__
    if saved != have:
        raise SnapshotError(
            f"snapshot {path} was written with integrator {saved} but the "
            f"simulation runs {have}; rebuild the simulation to match"
        )
    saved_fixes = [entry["type"] for entry in state["fixes"]]
    have_fixes = [type(fix).__name__ for fix in simulation.fixes]
    if saved_fixes != have_fixes:
        raise SnapshotError(
            f"snapshot {path} was written with fixes {saved_fixes} but the "
            f"simulation has {have_fixes}; rebuild the simulation to match"
        )


def _restore_particle_state(simulation: Simulation, system: AtomSystem) -> None:
    target = simulation.system
    if system.n_atoms != target.n_atoms:
        raise SnapshotError(
            f"snapshot holds {system.n_atoms} atoms but the simulation has "
            f"{target.n_atoms}"
        )
    # Same-mode restores see a no-op astype (float32 state round-trips
    # bit for bit); an explicit ``cast=`` opt-in lands here with a real
    # dtype conversion into the simulation's storage dtype.
    dtype = simulation.precision.storage_dtype
    target.box.lengths = system.box.lengths.copy()
    target.positions = system.positions.astype(dtype, copy=False)
    target.velocities = system.velocities.astype(dtype, copy=False)
    target.forces = system.forces.astype(dtype, copy=False)
    target.images = system.images
    if system.omega is not None and target.omega is not None:
        target.omega = system.omega.astype(dtype, copy=False)
        target.torques = system.torques.astype(dtype, copy=False)


def restore_simulation(
    simulation: Simulation,
    path: str | Path,
    *,
    cast: str | None = None,
) -> Snapshot:
    """Load a snapshot *into* an existing simulation in place.

    The simulation must have been constructed with the same topology,
    force field, integrator and fixes; this swaps in the saved particle
    and dynamical state and reconstructs the neighbor list from its
    original build inputs, after which continuing the run reproduces
    the uninterrupted trajectory bit for bit.

    v2 snapshots record the precision mode they were written under
    (older v2 files without the tag are float64).  Resuming under a
    *different* mode silently changes the trajectory, so a mismatch is
    refused unless ``cast=`` names the simulation's own mode as an
    explicit opt-in — e.g. ``cast="double"`` to promote a SINGLE
    checkpoint's float32 state into a float64 run.

    v1 snapshots only hold particle state and are rejected with a
    :class:`SnapshotError`.
    """
    snapshot = load_snapshot(path)
    if snapshot.version == 1:
        raise SnapshotError(
            f"snapshot {path} is format v1, which captures particle "
            "state only — integrator/thermostat/fix/RNG/contact state "
            "is missing, so a restore silently diverges for anything "
            "but plain NVE"
        )
    saved_mode = parse_precision(snapshot.state.get("precision", "double"))
    have_mode = simulation.precision.mode
    if saved_mode != have_mode:
        if cast is None:
            raise SnapshotError(
                f"snapshot {path} was written under precision "
                f"'{saved_mode.value}' but the simulation runs "
                f"'{have_mode.value}'; resuming across modes changes the "
                f"trajectory — pass cast='{have_mode.value}' to convert "
                "the checkpointed state explicitly"
            )
        if parse_precision(cast) != have_mode:
            raise SnapshotError(
                f"cast='{cast}' does not match the simulation's precision "
                f"'{have_mode.value}'; cast names the mode the restored "
                "state is converted *to*"
            )

    _check_tags(simulation, snapshot.state, Path(path))
    _restore_particle_state(simulation, snapshot.system)
    simulation.step_number = snapshot.step_number
    simulation.potential_energy = float(snapshot.potential_energy)
    simulation.virial = float(snapshot.virial)
    simulation.integrator.load_state_dict(snapshot.state["integrator"]["state"])
    for fix, entry in zip(simulation.fixes, snapshot.state["fixes"]):
        fix.load_state_dict(entry["state"])
    if simulation.constraints is not None and snapshot.state["constraints"]:
        simulation.constraints.load_state_dict(snapshot.state["constraints"])
    counts = snapshot.state["counts"]
    for name, value in counts.items():
        setattr(simulation.counts, name, int(value))

    # Contact histories go in *before* the neighbor rebuild: the
    # parallel executor respawns its worker pool with these tables as
    # the workers' initial stores at the rebuild dispatch below.
    simulation.force_executor.import_contact_histories(snapshot.histories)

    if snapshot.neighbor_build is not None:
        _rebuild_neighbors_as_at_build(simulation, *snapshot.neighbor_build)
        simulation.neighbor.stats.load_state_dict(
            snapshot.state["neighbor_stats"]
        )
        # Forces/energy/virial were restored verbatim — no recompute.  A
        # recompute would not only waste a force pass, it would *advance*
        # granular contact histories a second time.
        simulation._setup_done = True  # noqa: SLF001
    else:
        # Snapshot predates the first step: let the normal setup run.
        simulation._setup_done = False  # noqa: SLF001
    simulation._initial_energy = None  # noqa: SLF001 - drift baseline resets
    return snapshot
