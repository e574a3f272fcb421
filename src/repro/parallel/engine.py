"""Shared-memory parallel force executor: real multi-process execution.

This is the engine the paper's strong-scaling figures describe, scaled
down to one node: the box is split into a 3-D grid of subdomains
(:func:`repro.parallel.decomposition.proc_grid`), one persistent worker
process owns each subdomain, and the bulk per-atom state — positions,
velocities, forces, per-atom energy/virial accumulators — lives in
POSIX shared memory.  Everything else travels on each worker's private
pipe (:mod:`repro.parallel.procs`): a step is one ~100-byte command
(what to do, the box lengths) out and one ~100-byte reply (wall/CPU
seconds, interaction counts, or a traceback) back.  The master
publishes fresh coordinates, sends the command, the workers evaluate
their owned atoms' directed neighbor rows through the kernel-backend
interface, write disjoint owned slices of the shared output arrays and
reply; :func:`~repro.parallel.procs.gather` is the master's wait.  That
round trip is this engine's stand-in for MPI halo exchange; the
per-worker wall-clock in each reply is what
:meth:`ParallelForceExecutor.timeline` turns into a *measured*
:class:`~repro.observability.timeline.RankTimeline` to hold against the
modelled one.

Design properties (see ``docs/SCALING.md`` for the full derivations):

* owner-computes with full directed rows (``newton off``): 2x the pair
  arithmetic of the serial half list, but disjoint writes and bitwise
  identical results for any worker count;
* the rebuild cadence mirrors the serial engine exactly — the master
  applies :meth:`NeighborList.needs_rebuild` to the same positions the
  serial engine would check, and sends one ``rebuild`` command;
* worker failure is detected, not hung on: a dead worker's process
  sentinel wakes the master's wait at once (however it died — an
  injected ``os._exit`` or a real SIGKILL), a silent one runs into
  ``barrier_timeout``, a raising one replies with its traceback — all
  three surface as :class:`ParallelEngineError` on the master, with the
  pool torn down and respawnable.  No lock or semaphore is shared
  between the processes, so no death can wedge the survivors.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
import traceback
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from repro.md.atoms import AtomSystem
from repro.md.box import Box
from repro.md.heap import keep_freed_heap
from repro.md.kernels import backend_spec, get_backend
from repro.md.neighbor import _encode_pairs
from repro.md.precision import Precision, PrecisionPolicy, policy_for
from repro.md.potentials.base import ForceResult
from repro.md.simulation import ForceExecutor
from repro.observability.timeline import RankTimeline
from repro.parallel.decomposition import proc_grid
from repro.parallel.forces import DomainLists, OwnerRows
from repro.parallel.halo import LocalIndex
from repro.parallel.procs import WorkerFailure, WorkerProcess, gather, stop_all
from repro.parallel.shm import ShmArena

__all__ = ["ParallelForceExecutor", "ParallelEngineError"]

#: Stop message (every other message is a ``(command, lengths, fault,
#: histories)`` tuple with command ``"rebuild"``, ``"step"`` or
#: ``"history"``).
_STOP = None

#: Exit code of a fault-injected kill.
_FAULT_EXIT_CODE = 21


class ParallelEngineError(RuntimeError):
    """A worker failed (exception, crash, or reply timeout)."""


def _start_method() -> str:
    """``fork`` where the platform has it (workers inherit the parent
    cleanly), else ``spawn`` (payloads are picklable either way)."""
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


@dataclass
class _WorkerPayload:
    """Everything a worker needs besides the shared arrays (picklable)."""

    worker_id: int
    n_workers: int
    specs: dict
    potentials: list
    backend: str
    #: Force cutoff (what the neighbors/atom statistic counts within)
    #: and the stored-pair cutoff ``cutoff + skin``.
    cutoff: float
    list_cutoff: float
    halo_width: float
    origin: np.ndarray
    periodic: np.ndarray
    quasi_2d: bool
    n_atoms: int
    excluded_keys: np.ndarray | None
    statics: dict
    has_omega: bool
    needs_velocities: bool
    #: Precision mode name; each worker installs the matching policy on
    #: its own backend instance.
    precision: str = "double"
    #: Potential slots carrying a contact-history store.
    history_slots: tuple = ()


def _force_pass(payload, arena, backend, lists, statics_local, lengths) -> list:
    """One ``step``: every potential over the worker's rows, the owned
    slices of the shared outputs written; returns the directed
    interaction count per potential.  (A function of its own so the row
    view — which holds ``lists`` — dies with it: the next rebuild drops
    the old lists *before* building the new ones.)"""
    index = lists.index
    per_atom = dict(statics_local)
    if payload.needs_velocities:
        per_atom["velocities"] = arena["velocities"][index.gids]
    if payload.has_omega:
        per_atom["omega"] = arena["omega"][index.gids]
    rows = OwnerRows(
        lists,
        arena["positions"],
        lengths,
        payload.periodic,
        backend,
        per_atom,
        payload.n_atoms,
    )
    counts = [int(potential.evaluate(rows)) for potential in payload.potentials]
    owned = index.gids[: index.n_owned]
    arena["forces"][owned] = rows.forces
    arena["energy"][owned] = rows.energy
    arena["virial"][owned] = rows.virial
    if "torques" in arena and rows.torques is not None:
        arena["torques"][owned] = rows.torques
    return counts


def _worker_main(conn, payload: _WorkerPayload) -> None:
    """Persistent worker loop: receive a command, act, reply.

    A reply is ``(error, wall_seconds, cpu_seconds, data)``: ``error``
    is ``None`` or the traceback of whatever the command raised, and
    ``data`` the owned directed-pair counts ``(stored, within the force
    cutoff)`` (``rebuild``), the per-potential interaction counts
    (``step``) or the contact-history tables (``history``).
    """
    keep_freed_heap()
    worker = payload.worker_id
    arena = ShmArena.attach(payload.specs)
    backend = get_backend(payload.backend)
    backend.set_policy(policy_for(payload.precision))
    lists: DomainLists | None = None
    statics_local: dict | None = None
    potentials = payload.potentials
    # Ghost-headed rows are read only under a widened halo (by bodies
    # whose terms need their partners' complete rows); everyone else
    # builds the owned-head-only directed list.
    owned_only = payload.halo_width <= payload.list_cutoff
    try:
        while (message := conn.recv()) is not _STOP:
            command, lengths, fault, tables = message
            # An injected fault acts *after* the command arrived, so the
            # failure always lands mid-protocol the way a real crash
            # would.
            if fault == "kill":
                os._exit(_FAULT_EXIT_CODE)
            if fault == "hang":
                # Block without ever replying: the process stays alive,
                # so only the master's reply timeout can detect it.
                time.sleep(3600.0)
            error = data = None
            tick = time.perf_counter()
            cpu_tick = time.process_time()
            try:
                lengths = np.array(lengths, dtype=np.float64)
                if command == "rebuild":
                    # Atoms change owner at a rebuild and their contact
                    # histories follow them: reload every store from
                    # the pool-wide table (a checkpoint's, at a pool's
                    # first rebuild); the next sync keeps the rows this
                    # worker now heads.
                    for slot, table in tables.items():
                        potentials[slot].history.load(*table)
                    # Drop the old rows first so the new ones are built
                    # in their (warm) heap instead of beside them: a
                    # rebuild then faults in no fresh pages and the
                    # worker's peak holds one list, not two.
                    lists = None
                    # Pair search runs on wrapped coordinates (+ ghost
                    # images); force evaluation below never does — it
                    # recomputes minimum-image displacements from the
                    # raw shared positions.
                    box = Box(lengths, payload.periodic, payload.origin)
                    wrapped = box.wrap(arena["positions"])
                    grid = proc_grid(
                        payload.n_workers, lengths, quasi_2d=payload.quasi_2d
                    )
                    index = LocalIndex.build(
                        wrapped,
                        payload.origin,
                        lengths,
                        payload.periodic,
                        grid,
                        worker,
                        payload.halo_width,
                    )
                    lists = DomainLists.build(
                        index,
                        index.local_positions(wrapped, lengths),
                        payload.list_cutoff,
                        payload.cutoff,
                        excluded_keys=payload.excluded_keys,
                        n_atoms_total=payload.n_atoms,
                        owned_only=owned_only,
                        kernels=backend,
                    )
                    statics_local = {
                        key: (None if value is None else value[index.gids])
                        for key, value in payload.statics.items()
                    }
                    data = (lists.n_owned_rows, lists.owned_within)
                elif command == "step":
                    if lists is None:
                        raise RuntimeError("step before the first rebuild")
                    data = _force_pass(
                        payload, arena, backend, lists, statics_local, lengths
                    )
                elif command == "history":
                    data = {
                        slot: potentials[slot].history.export()
                        for slot in payload.history_slots
                    }
            except Exception:  # report instead of dying
                error = traceback.format_exc()
            wall = time.perf_counter() - tick
            conn.send((error, wall, time.process_time() - cpu_tick, data))
    except (EOFError, OSError):
        pass  # the master is gone (pipe EOF); nothing left to serve
    finally:
        arena.close()


class ParallelForceExecutor(ForceExecutor):
    """Domain-decomposed Neigh+Pair execution on worker processes.

    Parameters
    ----------
    n_workers:
        Worker process count; also the subdomain count (``proc_grid``
        factorizes it into the 3-D grid of minimum surface area).
    barrier_timeout:
        Seconds the master waits for a silent worker's reply before
        declaring it hung (:class:`ParallelEngineError`).  A worker
        that *died* is reported at once, whatever this is set to.
    fault_plan:
        Optional deterministic fault injector (anything with a
        ``take(step, phase) -> spec | None`` method returning specs with
        ``kind`` (``"kill"``/``"hang"``) and ``worker`` attributes —
        normally a :class:`repro.reliability.FaultPlan`).  When ``None``,
        ``$REPRO_FAULT_PLAN`` is consulted lazily on first dispatch.
    precision:
        Precision mode for the pool — a
        :class:`~repro.md.precision.Precision`, a case-insensitive mode
        name, or ``None`` to adopt the mode of the simulation the pool
        is bound to (:meth:`bind`, where an explicit mode that
        conflicts with the simulation's raises).  The shared position/
        velocity/force buffers are allocated in the mode's storage
        dtype (SINGLE halves every publish/collect byte), and each
        worker installs the matching policy on its kernel backend.
        Typed at start-up: changing modes needs a new executor.
    """

    def __init__(
        self,
        n_workers: int,
        *,
        barrier_timeout: float = 120.0,
        fault_plan=None,
        precision: "Precision | str | PrecisionPolicy | None" = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = int(n_workers)
        #: The pool's :class:`PrecisionPolicy`; ``None`` until :meth:`bind`
        #: when no mode was asked for.
        self.precision = None if precision is None else policy_for(precision)
        self.barrier_timeout = float(barrier_timeout)
        self._ctx = mp.get_context(_start_method())
        self._arena: ShmArena | None = None
        self._workers: list[WorkerProcess] = []
        self._closed = False
        self.fault_plan = fault_plan
        self._fault_env_checked = False
        self._pending_kill: int | None = None
        self._history_slots: tuple = ()
        self._needs_velocities = False
        self._initial_histories: dict = {}
        #: Pool generation counter: bumped by every (re)spawn, so
        #: recovery code and tests can assert a respawn happened.
        self.spawn_generation = 0
        #: Accumulated per-worker seconds (wall Pair, CPU Pair, wall Neigh).
        self.worker_pair_seconds = np.zeros(self.n_workers)
        self.worker_pair_cpu_seconds = np.zeros(self.n_workers)
        self.worker_neigh_seconds = np.zeros(self.n_workers)
        self.worker_neigh_cpu_seconds = np.zeros(self.n_workers)
        self.last_step_seconds = np.zeros(self.n_workers)
        self.steps_measured = 0
        self.builds_measured = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bind(self, simulation) -> None:
        """Attach to ``simulation`` and settle the pool's precision.

        The one place the rule lives, so the constructor route and the
        attach idiom (``sim.force_executor = ex; ex.bind(sim)``) cannot
        differ: a pool built without ``precision=`` adopts the
        simulation's mode; an explicit mode that is not the
        simulation's is an error rather than a silent mismatch between
        master state and worker buffers.
        """
        if self.precision is None:
            self.precision = simulation.precision
        elif self.precision != simulation.precision:
            raise ValueError(
                f"force executor was built for precision "
                f"'{self.precision.mode.value}' but the simulation asked "
                f"for '{simulation.precision.mode.value}'; construct both "
                "with the same mode"
            )
        super().bind(simulation)

    def _start(self) -> None:
        sim = self.simulation
        system = sim.system
        n = system.n_atoms
        potentials = sim.potentials
        self._needs_velocities = any(p.needs_velocities for p in potentials)
        has_omega = system.omega is not None

        # Per-atom exchange state is typed by the precision policy:
        # SINGLE halves every publish/collect byte through the arena,
        # while the per-atom energy/virial accumulator slots follow the
        # accumulate dtype.
        sd = self.precision.storage_dtype
        ad = self.precision.accumulate_dtype
        layout = {
            "positions": ((n, 3), sd),
            "velocities": ((n, 3), sd),
            "forces": ((n, 3), sd),
            "energy": ((n,), ad),
            "virial": ((n,), ad),
        }
        if has_omega:
            layout["omega"] = ((n, 3), sd)
        if system.torques is not None:
            layout["torques"] = ((n, 3), sd)
        self._history_slots = tuple(
            slot
            for slot, potential in enumerate(potentials)
            if potential.history is not None
        )
        self._arena = ShmArena.create(layout)

        list_cutoff = sim.neighbor.list_cutoff
        # The widest ghost shell any of the potentials requires.
        halo_width = max(
            (p.halo_width(list_cutoff) for p in potentials), default=list_cutoff
        )
        exclusions = sim.neighbor._exclusions
        excluded_keys = (
            None
            if exclusions is None
            else np.unique(_encode_pairs(exclusions[:, 0], exclusions[:, 1], n))
        )
        statics = {
            "types": system.types.copy(),
            "charges": system.charges.copy(),
            "masses": system.masses.copy(),
            "radii": None if system.radii is None else system.radii.copy(),
        }
        spec = backend_spec(sim.backend)
        # Workers get potential clones with the backend reference severed
        # (backends carry scratch buffers, possibly tracer handles, and —
        # for the compiled backend — ctypes bindings that cannot be
        # pickled or deep-copied); each worker resolves its own instance
        # from the registry name.  Sever *before* the deepcopy so the
        # backend never enters the copy graph, then restore.
        import copy

        saved_backends = [pot._backend for pot in potentials]
        for pot in potentials:
            pot._backend = None
        try:
            worker_potentials = copy.deepcopy(potentials)
        finally:
            for pot, saved in zip(potentials, saved_backends):
                pot._backend = saved
        # A pool's contact stores start from the tables its first
        # rebuild is handed, not from whatever the master's copies hold.
        for slot in self._history_slots:
            worker_potentials[slot].history.load((), ())

        for worker_id in range(self.n_workers):
            payload = _WorkerPayload(
                worker_id=worker_id,
                n_workers=self.n_workers,
                specs=self._arena.specs,
                potentials=worker_potentials,
                backend=spec,
                cutoff=sim.neighbor.cutoff,
                list_cutoff=list_cutoff,
                halo_width=halo_width,
                origin=system.box.origin.copy(),
                periodic=system.box.periodic.copy(),
                quasi_2d=sim.quasi_2d,
                n_atoms=n,
                excluded_keys=excluded_keys,
                statics=statics,
                has_omega=has_omega,
                needs_velocities=self._needs_velocities,
                precision=self.precision.mode.value,
                history_slots=self._history_slots,
            )
            self._workers.append(
                WorkerProcess(
                    self._ctx,
                    _worker_main,
                    (payload,),
                    name=f"repro-worker-{worker_id}",
                    daemon=True,
                )
            )
        self.spawn_generation += 1

    def _teardown(self) -> None:
        """Stop the pool and release shared state, staying respawnable.

        Unlike :meth:`close`, a torn-down executor is still usable: the
        next ``maintain_neighbors``/``compute`` call runs :meth:`_start`
        again, spawning a fresh pool (whose first rebuild loads whatever
        ``import_contact_histories`` installed last).  This is the
        recovery path's respawn primitive.
        """
        stop_all(self._workers, _STOP, timeout=5.0)
        self._workers = []
        if self._arena is not None:
            self._arena.close()
            self._arena = None

    def close(self) -> None:
        """Stop the workers and release every shared segment (final)."""
        if self._closed:
            return
        self._closed = True
        self._teardown()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    @property
    def arena_nbytes(self) -> int:
        """Bytes mapped in the shared-memory arena (0 before start).

        Sized by the precision policy: the per-atom position/velocity/
        force segments use the storage dtype, so SINGLE reports half the
        exchange footprint of DOUBLE for the same atom count.
        """
        return 0 if self._arena is None else int(self._arena.nbytes)

    @property
    def worker_pids(self) -> tuple[int, ...]:
        """Process ids of the live pool, by worker id (empty before
        start and after a teardown)."""
        return tuple(worker.pid for worker in self._workers)

    # ------------------------------------------------------------------
    # Dispatch machinery
    # ------------------------------------------------------------------
    def _publish_state(self, system: AtomSystem) -> None:
        arena = self._arena
        np.copyto(arena["positions"], system.positions)
        if self._needs_velocities:
            np.copyto(arena["velocities"], system.velocities)
        if "omega" in arena and system.omega is not None:
            np.copyto(arena["omega"], system.omega)

    def _dispatch(
        self, command: str, system: AtomSystem, *, fault=None, histories=None
    ) -> list[tuple]:
        """One command round-trip: send to every worker, gather replies.

        Returns each worker's ``(wall_seconds, cpu_seconds, data)``.
        ``fault`` reaches only the worker it names; ``histories`` (a
        ``rebuild`` only) are directed contact tables for every worker
        to reload its stores from.
        """
        lengths = system.box.lengths.tolist()
        for worker_id, worker in enumerate(self._workers):
            mine = fault is not None and fault.worker == worker_id
            # A dead peer is not an error here: gather names it.
            worker.send((command, lengths, fault.kind if mine else None, histories))
        try:
            replies = gather(self._workers, self.barrier_timeout)
        except WorkerFailure as exc:
            if exc.exitcode is None:  # hung, not dead: nothing to wait for
                self._workers[exc.index].stop(_STOP, timeout=0.0)
            self._fail(f"{exc} during {command}")
        for worker_id, (error, *_) in enumerate(replies):
            if error is not None:
                self._fail(
                    f"worker {worker_id} raised during {command}: "
                    f"{error.strip().splitlines()[-1]}\n{error}"
                )
        return [reply[1:] for reply in replies]

    def _fail(self, reason: str) -> None:
        """Tear the pool down — it stays respawnable, so a supervisor can
        restore a checkpoint and keep using this executor — and raise."""
        self._teardown()
        raise ParallelEngineError(reason)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def _active_fault_plan(self):
        """The configured fault plan, resolving ``$REPRO_FAULT_PLAN``
        lazily (a function-level import keeps :mod:`repro.reliability`
        out of this module's import graph)."""
        if self.fault_plan is None and not self._fault_env_checked:
            self._fault_env_checked = True
            if os.environ.get("REPRO_FAULT_PLAN"):
                from repro.reliability.faultplan import FaultPlan

                self.fault_plan = FaultPlan.from_env()
        return self.fault_plan

    def _take_fault(self, phase: str):
        if self._pending_kill is not None:
            worker = self._pending_kill
            self._pending_kill = None
            return SimpleNamespace(kind="kill", worker=worker)
        plan = self._active_fault_plan()
        if plan is None:
            return None
        spec = plan.take(self.simulation.step_number, phase)
        if spec is not None and not 0 <= spec.worker < self.n_workers:
            raise ValueError(
                f"fault plan targets worker {spec.worker} but the engine "
                f"has {self.n_workers} workers"
            )
        return spec

    def kill_worker(self, worker_id: int) -> None:
        """Schedule one worker's death at its next command dispatch.

        This is the checkpoint-phase fault: from the supervisor's view
        the process dies right after the failed write, and the next
        dispatch fails with a :class:`ParallelEngineError`.  The kill is
        delivered *in-band* (the worker ``os._exit``s on receiving its
        next command) so that it lands at a reproducible point of the
        run; an asynchronous ``os.kill(pid, SIGKILL)`` on one of
        :attr:`worker_pids` is just as survivable, only not
        deterministic.
        """
        if not self._workers:
            raise RuntimeError("engine not started")
        if not 0 <= worker_id < self.n_workers:
            raise ValueError(f"no worker {worker_id}")
        self._pending_kill = int(worker_id)

    # ------------------------------------------------------------------
    # ForceExecutor interface
    # ------------------------------------------------------------------
    def maintain_neighbors(self, system: AtomSystem, *, force: bool = False) -> bool:
        neighbor = self.simulation.neighbor
        if not force:
            neighbor.stats.total_steps += 1
            neighbor.stats.steps_since_build += 1
            if not neighbor.needs_rebuild(system):
                return False
        if self._workers:
            histories = self._gather_histories(system)
        else:
            self._start()
            histories = self._initial_histories
        # Mirror the serial build's validity check: ghost-image pair
        # search needs the box at least two list-cutoffs wide.
        rc = neighbor.list_cutoff
        periodic_lengths = system.box.lengths[system.box.periodic]
        if len(periodic_lengths) and rc > 0.5 * float(np.min(periodic_lengths)):
            raise ValueError(
                f"cutoff+skin {rc:g} exceeds half the smallest periodic box "
                f"length {float(np.min(periodic_lengths)):g}; enlarge the "
                "system or shrink the cutoff"
            )
        self._publish_state(system)
        replies = self._dispatch(
            "rebuild",
            system,
            fault=self._take_fault("rebuild"),
            histories=histories,
        )
        neighbor._positions_at_build = system.box.wrap(system.positions)
        neighbor._box_lengths_at_build = system.box.lengths.copy()
        stats = neighbor.stats
        stats.n_builds += 1
        stats.steps_since_build = 0
        wall, cpu, counts = zip(*replies)
        directed, within = (sum(column) for column in zip(*counts))
        stats.last_pairs = directed if neighbor.full else directed // 2
        # Neighbors/atom within the *cutoff* (Table 2 convention): each
        # unordered pair is one owned row on each side.
        stats.last_neighbors_per_atom = within / system.n_atoms
        self.worker_neigh_seconds += wall
        self.worker_neigh_cpu_seconds += cpu
        self.builds_measured += 1
        return True

    def compute(self, system: AtomSystem) -> ForceResult:
        if not self._workers:
            self.maintain_neighbors(system, force=True)
        arena = self._arena
        self._publish_state(system)
        replies = self._dispatch("step", system, fault=self._take_fault("step"))
        wall, cpu, counts = zip(*replies)

        np.copyto(system.forces, arena["forces"])
        if system.torques is not None and "torques" in arena:
            np.copyto(system.torques, arena["torques"])
        # Canonical-order reductions: summing the per-atom shared slots
        # by global id makes totals independent of the decomposition.
        # The scalar totals always reduce in float64.
        energy = float(np.sum(arena["energy"], dtype=np.float64))
        virial = float(np.sum(arena["virial"], dtype=np.float64))
        interactions = 0
        for potential, per_worker in zip(self.simulation.potentials, zip(*counts)):
            directed = sum(per_worker)
            interactions += directed if potential.needs_full_list else directed // 2
            # System-level terms belong to no row: added here, once.
            whole = potential.system_terms(system.n_atoms, system.box.volume)
            energy += whole[0]
            virial += whole[1]

        self.last_step_seconds = np.array(wall)
        self.worker_pair_seconds += wall
        self.worker_pair_cpu_seconds += cpu
        self.steps_measured += 1
        return ForceResult(energy, virial, interactions)

    # ------------------------------------------------------------------
    # Contact-history round-trip (checkpoint/restart)
    # ------------------------------------------------------------------
    def export_contact_histories(self) -> dict[int, tuple]:
        """Collect worker-local contact stores into canonical tables.

        Each touching pair is stored twice across the pool (once per
        directed row, by its head's owner); keeping only the ``gi < gj``
        orientation — whose tangential displacement matches the serial
        half-list convention by the contact law's direction-swap
        symmetry — reduces the pool state to exactly the serial store
        (still sorted by key, so the output is decomposition-independent).
        """
        if not self._workers:
            return super().export_contact_histories()
        system = self.simulation.system
        n = system.n_atoms
        tables: dict[int, tuple] = {}
        for slot, (keys, values) in self._gather_histories(system).items():
            canonical = (keys // n) < (keys % n)
            tables[slot] = (keys[canonical], values[canonical])
        return tables

    def _gather_histories(self, system: AtomSystem) -> dict[int, tuple]:
        """The pool's directed contact rows, ``{slot: (keys, values)}``.

        Every touching pair appears once per orientation, held by the
        worker that owns its head.  Sorted by key, one row per key: a
        store that was loaded but not yet synced by a force pass still
        holds the whole table it was given, the same on every worker.
        """
        if not self._history_slots:
            return {}
        replies = self._dispatch("history", system)
        tables: dict[int, tuple] = {}
        for slot in self._history_slots:
            key_blocks, value_blocks = zip(*(data[slot] for *_, data in replies))
            keys, first = np.unique(np.concatenate(key_blocks), return_index=True)
            tables[slot] = (keys, np.concatenate(value_blocks)[first])
        return tables

    def import_contact_histories(self, tables: dict[int, tuple]) -> None:
        """Install checkpointed contact tables as the pool's seed state.

        The canonical ``i < j`` rows are kept in the master-side
        potentials (via the base implementation — that copy is what a
        later degradation to the serial executor runs on) and expanded
        to both directed orientations (mirror keys, negated values) for
        the workers.  A running pool is torn down: its workers hold
        stale stores, and the next dispatch respawns them with these
        tables.
        """
        super().import_contact_histories(tables)
        n = self.simulation.system.n_atoms
        directed: dict = {}
        for slot, (keys, values) in tables.items():
            keys = np.asarray(keys, dtype=np.int64).reshape(-1)
            values = np.asarray(values, dtype=float).reshape(-1, 3)
            mirror = (keys % n) * np.int64(n) + keys // n
            directed[slot] = (
                np.concatenate([keys, mirror]),
                np.concatenate([values, -values]),
            )
        self._initial_histories = directed
        self._teardown()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def reset_timings(self) -> None:
        """Zero the accumulated timing counters.

        Benchmarks call this after a warm-up phase so steady-state rates
        exclude the one-off initial neighbor build and scratch growth.
        """
        self.worker_pair_seconds[:] = 0.0
        self.worker_pair_cpu_seconds[:] = 0.0
        self.worker_neigh_seconds[:] = 0.0
        self.worker_neigh_cpu_seconds[:] = 0.0
        self.last_step_seconds[:] = 0.0
        self.steps_measured = 0
        self.builds_measured = 0

    def timeline(self) -> RankTimeline:
        """Measured per-worker timeline (mean seconds per force pass)."""
        steps = max(1, self.steps_measured)
        return RankTimeline.from_measured(self.worker_pair_seconds / steps)
