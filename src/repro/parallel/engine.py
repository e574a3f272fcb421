"""Shared-memory parallel force executor: real multi-process execution.

This is the engine the paper's strong-scaling figures describe, scaled
down to one node: the box is split into a 3-D grid of subdomains
(:func:`repro.parallel.decomposition.proc_grid`), one persistent worker
process owns each subdomain, and all cross-process state — positions,
velocities, forces, per-atom energy/virial accumulators, control words
and per-worker timing slots — lives in POSIX shared memory.  A step is
two barrier crossings: the master publishes fresh coordinates and a
command, the workers evaluate their owned atoms' directed neighbor rows
through the kernel-backend interface, write disjoint owned slices of
the shared output arrays, and meet the master at the done barrier.  The
barrier pair is this engine's stand-in for MPI halo exchange; the
per-worker wall-clock recorded at each step is what
:meth:`ParallelForceExecutor.timeline` turns into a *measured*
:class:`~repro.observability.timeline.RankTimeline` to hold against the
modelled one.

Design properties (see ``docs/SCALING.md`` for the full derivations):

* owner-computes with full directed rows (``newton off``): 2x the pair
  arithmetic of the serial half list, but disjoint writes and bitwise
  identical results for any worker count;
* the rebuild cadence mirrors the serial engine exactly — the master
  applies :meth:`NeighborList.needs_rebuild` to the same positions the
  serial engine would check, and broadcasts one REBUILD command;
* worker failure is detected, not hung on: barrier waits carry
  timeouts, worker exceptions land in a shared error record, and a
  vanished worker breaks the barrier — all three surface as
  :class:`ParallelEngineError` on the master.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import time
import traceback
from dataclasses import dataclass, field
from threading import BrokenBarrierError
from types import SimpleNamespace
from typing import TYPE_CHECKING

import numpy as np

from repro.md.atoms import AtomSystem
from repro.md.box import Box
from repro.md.kernels import backend_spec, get_backend
from repro.md.neighbor import _encode_pairs
from repro.md.precision import Precision, PrecisionPolicy, policy_for
from repro.md.potentials.base import ForceResult
from repro.md.potentials.eam import EAMAlloy
from repro.md.potentials.granular import ContactHistory
from repro.md.simulation import ForceExecutor
from repro.observability.timeline import RankTimeline
from repro.parallel.decomposition import proc_grid
from repro.parallel.forces import (
    DomainLists,
    evaluate_domain_forces,
    max_halo_width,
)
from repro.parallel.halo import LocalIndex
from repro.parallel.shm import ShmArena

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.md.simulation import Simulation

__all__ = ["ParallelForceExecutor", "ParallelEngineError"]

# Command words (slot 0 of the control array).
CMD_STOP = 0.0
CMD_STEP = 1.0
CMD_REBUILD = 2.0
CMD_DUMP_HISTORY = 3.0

# Fault-injection words (slot 5; slot 1 holds the target worker).  Set
# by the master when a fault plan names the current step/phase; the
# victim acts on them *after* the start barrier, so the failure always
# lands mid-protocol the way a real crash would.
FAULT_NONE = 0.0
FAULT_KILL = 1.0
FAULT_HANG = 2.0

#: Exit code of a fault-injected kill.
_FAULT_EXIT_CODE = 21

_ERROR_BYTES = 2048

#: Liveness-poll interval of the master's watchdog thread.
_WATCHDOG_POLL_SECONDS = 0.05


class ParallelEngineError(RuntimeError):
    """A worker failed (exception, crash, or barrier timeout)."""


@dataclass
class _WorkerPayload:
    """Everything a worker needs besides the shared arrays (picklable)."""

    worker_id: int
    n_workers: int
    specs: dict
    potentials: list
    backend: str
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
    barrier_timeout: float
    #: Precision mode name; each worker installs the matching policy on
    #: its own backend instance.
    precision: str = "double"
    #: Potential slots carrying a contact-history store, and the row
    #: capacity of their per-worker dump arrays.
    history_slots: tuple = ()
    history_cap: int = 0
    #: Directed ``{slot: (keys, values)}`` tables each worker seeds its
    #: local contact store from (the checkpoint-restore path).
    initial_histories: dict = field(default_factory=dict)


def _write_error(arena: ShmArena, worker_id: int, exc: BaseException) -> None:
    arena["error_flag"][worker_id] = 1
    message = "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    ).encode("utf-8", errors="replace")[-_ERROR_BYTES:]
    row = arena["error_text"][worker_id]
    row[:] = 0
    row[: len(message)] = np.frombuffer(message, dtype=np.uint8)


def _read_error(arena: ShmArena, worker_id: int) -> str:
    row = bytes(arena["error_text"][worker_id])
    return row.rstrip(b"\x00").decode("utf-8", errors="replace")


def _worker_main(payload: _WorkerPayload, start_barrier, done_barrier) -> None:
    """Persistent worker loop: wait at the start barrier, act, report."""
    worker = payload.worker_id
    arena = ShmArena.attach(payload.specs)
    backend = get_backend(payload.backend)
    backend.set_policy(policy_for(payload.precision))
    control = arena["control"]
    timing = arena["timing"]
    lists: DomainLists | None = None
    statics_local: dict | None = None
    histories: dict = {}
    for slot, (keys, values) in payload.initial_histories.items():
        store = ContactHistory()
        store.load(keys, values)
        histories[slot] = store
    # EAM's density pass is the only consumer of ghost-headed rows;
    # everyone else builds the owned-head-only directed list.
    owned_only = not any(isinstance(p, EAMAlloy) for p in payload.potentials)
    # Hang/kill detection is the *master's* job (watchdog + its own
    # timeout); the worker-side timeout only guards against a vanished
    # master, so it gets a generous floor — a short master-side timeout
    # (tuned for fast hang detection) must not make workers bail while
    # the master is legitimately busy between dispatches, e.g. writing
    # a checkpoint or restoring one.
    wait_timeout = max(60.0, payload.barrier_timeout)
    try:
        while True:
            start_barrier.wait(timeout=wait_timeout)
            command = control[0]
            if command == CMD_STOP:
                break
            try:
                if control[5] != FAULT_NONE and int(control[1]) == worker:
                    if control[5] == FAULT_KILL:
                        os._exit(_FAULT_EXIT_CODE)
                    # Injected hang: block without ever reaching the
                    # done barrier, so only the master's barrier
                    # timeout can detect it (the process stays alive
                    # and the watchdog never fires).
                    time.sleep(3600.0)
                lengths = control[2:5].copy()
                if command == CMD_REBUILD:
                    tick = time.perf_counter()
                    cpu_tick = time.process_time()
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
                        excluded_keys=payload.excluded_keys,
                        n_atoms_total=payload.n_atoms,
                        owned_only=owned_only,
                        kernels=backend,
                    )
                    statics_local = {
                        key: (None if value is None else value[index.gids])
                        for key, value in payload.statics.items()
                    }
                    timing[worker, 2] = time.perf_counter() - tick
                    timing[worker, 3] = time.process_time() - cpu_tick
                    timing[worker, 4] = lists.owned_directed_pairs
                elif command == CMD_STEP:
                    if lists is None:
                        raise RuntimeError("STEP before the first REBUILD")
                    tick = time.perf_counter()
                    cpu_tick = time.process_time()
                    index = lists.index
                    velocities = (
                        arena["velocities"][index.gids]
                        if payload.needs_velocities
                        else None
                    )
                    omega = (
                        arena["omega"][index.gids] if payload.has_omega else None
                    )
                    result = evaluate_domain_forces(
                        payload.potentials,
                        lists,
                        arena["positions"],
                        lengths=lengths,
                        periodic=payload.periodic,
                        backend=backend,
                        statics=statics_local,
                        velocities=velocities,
                        omega=omega,
                        histories=histories,
                        n_atoms_total=payload.n_atoms,
                    )
                    owned = index.gids[: index.n_owned]
                    arena["forces"][owned] = result.forces
                    arena["energy"][owned] = result.energy
                    arena["virial"][owned] = result.virial
                    if "torques" in arena and result.torques is not None:
                        arena["torques"][owned] = result.torques
                    arena["interactions"][worker, : len(result.interactions)] = (
                        result.interactions
                    )
                    timing[worker, 0] = time.perf_counter() - tick
                    timing[worker, 1] = time.process_time() - cpu_tick
                elif command == CMD_DUMP_HISTORY:
                    for slot in payload.history_slots:
                        store = histories.get(slot)
                        keys, values = (
                            store.export()
                            if store is not None
                            else (
                                np.empty(0, dtype=np.int64),
                                np.empty((0, 3), dtype=float),
                            )
                        )
                        if len(keys) > payload.history_cap:
                            raise RuntimeError(
                                f"contact-history dump overflow: {len(keys)} "
                                f"rows exceed capacity {payload.history_cap}"
                            )
                        arena[f"hist{slot}_count"][worker] = len(keys)
                        arena[f"hist{slot}_keys"][worker, : len(keys)] = keys
                        arena[f"hist{slot}_values"][worker, : len(keys)] = values
            except Exception as exc:  # report, then meet the done barrier
                _write_error(arena, worker, exc)
            done_barrier.wait(timeout=wait_timeout)
    except BrokenBarrierError:
        # Master died or aborted; nothing to report to.
        pass
    finally:
        arena.close()


def _watch_workers(workers, barriers, stop: threading.Event) -> None:
    """Master-side liveness watchdog.

    A killed worker never reaches its next barrier, so without help the
    master would block for the full ``barrier_timeout``.  This thread
    polls worker liveness and *aborts* both barriers the moment any
    worker dies, converting the master's pending ``wait`` into an
    immediate :class:`~threading.BrokenBarrierError` — detection in
    ~`_WATCHDOG_POLL_SECONDS` instead of the timeout.  (An injected
    *hang* keeps its process alive, so that path is still covered by
    the barrier timeout, by design.)
    """
    while not stop.wait(_WATCHDOG_POLL_SECONDS):
        if any(not process.is_alive() for process in workers):
            for barrier in barriers:
                try:
                    barrier.abort()
                except Exception:  # pragma: no cover - already broken
                    pass
            return


class ParallelForceExecutor(ForceExecutor):
    """Domain-decomposed Neigh+Pair execution on worker processes.

    Parameters
    ----------
    n_workers:
        Worker process count; also the subdomain count (``proc_grid``
        factorizes it into the 3-D grid of minimum surface area).
    barrier_timeout:
        Seconds either side waits at a step barrier before declaring
        the counterpart dead (:class:`ParallelEngineError`).
    start_method:
        ``multiprocessing`` start method; default ``fork`` where
        available (workers inherit the parent cleanly), else ``spawn``
        (payloads are picklable either way).
    fault_plan:
        Optional deterministic fault injector (anything with a
        ``take(step, phase) -> spec | None`` method returning specs with
        ``kind`` (``"kill"``/``"hang"``) and ``worker`` attributes —
        normally a :class:`repro.reliability.FaultPlan`).  When ``None``,
        ``$REPRO_FAULT_PLAN`` is consulted lazily on first dispatch.
    precision:
        Precision mode for the pool — a
        :class:`~repro.md.precision.Precision`, a case-insensitive mode
        name, or ``None`` for float64.  The shared position/velocity/
        force buffers are allocated in the mode's storage dtype (SINGLE
        halves every publish/collect byte), and each worker installs
        the matching policy on its kernel backend.  Typed at start-up:
        changing modes needs a new executor.
    """

    def __init__(
        self,
        n_workers: int,
        *,
        barrier_timeout: float = 120.0,
        start_method: str | None = None,
        fault_plan=None,
        precision: "Precision | str | PrecisionPolicy | None" = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = int(n_workers)
        self.precision = policy_for(precision)
        self.barrier_timeout = float(barrier_timeout)
        if start_method is None:
            start_method = (
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
        self._ctx = mp.get_context(start_method)
        self._arena: ShmArena | None = None
        self._workers: list = []
        self._start_barrier = None
        self._done_barrier = None
        self._started = False
        self._closed = False
        self.fault_plan = fault_plan
        self._fault_env_checked = False
        self._pending_kill: int | None = None
        self._history_slots: tuple = ()
        self._history_cap = 0
        self._initial_histories: dict = {}
        self._watchdog: threading.Thread | None = None
        self._watchdog_stop: threading.Event | None = None
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
    def _start(self) -> None:
        sim = self.simulation
        system = sim.system
        n = system.n_atoms
        potentials = sim.potentials
        needs_velocities = any(
            getattr(p, "needs_full_list", False) for p in potentials
        )
        has_omega = system.omega is not None

        # Per-atom exchange state is typed by the precision policy:
        # SINGLE halves every publish/collect byte through the arena,
        # while the per-atom energy/virial accumulator slots follow the
        # accumulate dtype.  Control/timing words stay float64.
        sd = self.precision.storage_dtype
        ad = self.precision.accumulate_dtype
        layout = {
            "control": ((8,), np.float64),
            "positions": ((n, 3), sd),
            "velocities": ((n, 3), sd),
            "forces": ((n, 3), sd),
            "energy": ((n,), ad),
            "virial": ((n,), ad),
            "timing": ((self.n_workers, 5), np.float64),
            "interactions": ((self.n_workers, max(1, len(potentials))), np.int64),
            "error_flag": ((self.n_workers,), np.int64),
            "error_text": ((self.n_workers, _ERROR_BYTES), np.uint8),
        }
        if has_omega:
            layout["omega"] = ((n, 3), sd)
        if system.torques is not None:
            layout["torques"] = ((n, 3), sd)
        self._history_slots = tuple(
            slot
            for slot, potential in enumerate(potentials)
            if getattr(potential, "history", None) is not None
        )
        self._history_cap = max(256, 8 * n)
        for slot in self._history_slots:
            layout[f"hist{slot}_count"] = ((self.n_workers,), np.int64)
            layout[f"hist{slot}_keys"] = (
                (self.n_workers, self._history_cap),
                np.int64,
            )
            layout[f"hist{slot}_values"] = (
                (self.n_workers, self._history_cap, 3),
                np.float64,
            )
        self._arena = ShmArena.create(layout)

        list_cutoff = sim.neighbor.list_cutoff
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

        self._start_barrier = self._ctx.Barrier(self.n_workers + 1)
        self._done_barrier = self._ctx.Barrier(self.n_workers + 1)
        for worker_id in range(self.n_workers):
            payload = _WorkerPayload(
                worker_id=worker_id,
                n_workers=self.n_workers,
                specs=self._arena.specs,
                potentials=worker_potentials,
                backend=spec,
                list_cutoff=list_cutoff,
                halo_width=max_halo_width(potentials, list_cutoff),
                origin=system.box.origin.copy(),
                periodic=system.box.periodic.copy(),
                quasi_2d=sim.quasi_2d,
                n_atoms=n,
                excluded_keys=excluded_keys,
                statics=statics,
                has_omega=has_omega,
                needs_velocities=needs_velocities or has_omega,
                barrier_timeout=self.barrier_timeout,
                precision=self.precision.mode.value,
                history_slots=self._history_slots,
                history_cap=self._history_cap,
                initial_histories=self._initial_histories,
            )
            process = self._ctx.Process(
                target=_worker_main,
                args=(payload, self._start_barrier, self._done_barrier),
                daemon=True,
                name=f"repro-worker-{worker_id}",
            )
            process.start()
            self._workers.append(process)
        self._started = True
        self.spawn_generation += 1
        self._watchdog_stop = threading.Event()
        self._watchdog = threading.Thread(
            target=_watch_workers,
            args=(
                list(self._workers),
                (self._start_barrier, self._done_barrier),
                self._watchdog_stop,
            ),
            daemon=True,
            name="repro-worker-watchdog",
        )
        self._watchdog.start()

    def _teardown(self) -> None:
        """Stop the pool and release shared state, staying respawnable.

        Unlike :meth:`close`, a torn-down executor is still usable: the
        next ``maintain_neighbors``/``compute`` call runs :meth:`_start`
        again, spawning a fresh pool (seeded with whatever
        ``import_contact_histories`` installed last).  This is the
        recovery path's respawn primitive.
        """
        if self._watchdog_stop is not None:
            self._watchdog_stop.set()
        if self._watchdog is not None:
            self._watchdog.join(timeout=2.0)
        self._watchdog = None
        self._watchdog_stop = None
        if self._started and self._arena is not None:
            alive = [p for p in self._workers if p.is_alive()]
            if alive:
                try:
                    self._arena["control"][0] = CMD_STOP
                    self._arena["control"][5] = FAULT_NONE
                    self._start_barrier.wait(timeout=5.0)
                except (BrokenBarrierError, ValueError):
                    pass
            for process in self._workers:
                process.join(timeout=5.0)
                if process.is_alive():  # pragma: no cover - stuck worker
                    process.terminate()
                    process.join(timeout=5.0)
        self._workers = []
        self._start_barrier = None
        self._done_barrier = None
        self._started = False
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

    # ------------------------------------------------------------------
    # Dispatch machinery
    # ------------------------------------------------------------------
    def _publish_state(self, system: AtomSystem) -> None:
        arena = self._arena
        np.copyto(arena["positions"], system.positions)
        np.copyto(arena["velocities"], system.velocities)
        if "omega" in arena and system.omega is not None:
            np.copyto(arena["omega"], system.omega)
        arena["control"][2:5] = system.box.lengths

    def _dispatch(self, command: float, *, fault=None) -> None:
        """One command round-trip: start barrier, worker action, done."""
        arena = self._arena
        arena["control"][0] = command
        arena["control"][5] = FAULT_NONE
        if fault is not None:
            arena["control"][1] = float(fault.worker)
            arena["control"][5] = (
                FAULT_KILL if fault.kind == "kill" else FAULT_HANG
            )
        try:
            self._start_barrier.wait(timeout=self.barrier_timeout)
            self._done_barrier.wait(timeout=self.barrier_timeout)
        except (BrokenBarrierError, ValueError) as exc:
            self._fail(f"barrier failed during command {command:g}: {exc!r}")
        flags = arena["error_flag"]
        if flags.any():
            failed = int(np.flatnonzero(flags)[0])
            message = _read_error(arena, failed)
            self._fail(f"worker {failed} raised:\n{message}")

    def _fail(self, reason: str) -> None:
        """Collect worker status, tear the pool down, and raise.

        The executor is left *respawnable* (see :meth:`_teardown`), so a
        supervisor catching the :class:`ParallelEngineError` can restore
        a checkpoint and keep using this same executor instance.
        """
        status = []
        for worker_id, process in enumerate(self._workers):
            if not process.is_alive() and process.exitcode not in (0, None):
                status.append(f"worker {worker_id} exitcode {process.exitcode}")
            flags = self._arena["error_flag"] if self._arena is not None else None
            if flags is not None and flags[worker_id]:
                text = _read_error(self._arena, worker_id).strip().splitlines()
                if text:
                    status.append(f"worker {worker_id}: {text[-1]}")
        for barrier in (self._start_barrier, self._done_barrier):
            if barrier is not None:
                try:
                    barrier.abort()
                except Exception:  # pragma: no cover - already broken
                    pass
        detail = ("; ".join(status)) or "no worker diagnostics recorded"
        self._teardown()
        raise ParallelEngineError(f"{reason} [{detail}]")

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
        the process dies right after the failed write, and the watchdog
        breaks the pending dispatch into a :class:`ParallelEngineError`.
        The kill is delivered *in-band* (the worker ``os._exit``s just
        after passing the start barrier) rather than as an asynchronous
        SIGKILL: a signal landing while the victim holds a barrier's
        internal semaphore would leave that lock held forever, and the
        master, watchdog and surviving workers would all deadlock
        trying to acquire it.
        """
        if not self._started:
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
        if not self._started:
            self._start()
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
        self._dispatch(CMD_REBUILD, fault=self._take_fault("rebuild"))
        neighbor._positions_at_build = system.box.wrap(system.positions)
        neighbor._box_lengths_at_build = system.box.lengths.copy()
        stats = neighbor.stats
        stats.n_builds += 1
        stats.steps_since_build = 0
        directed = int(self._arena["timing"][:, 4].sum())
        stats.last_pairs = directed if neighbor.full else directed // 2
        self.worker_neigh_seconds += self._arena["timing"][:, 2]
        self.worker_neigh_cpu_seconds += self._arena["timing"][:, 3]
        self.builds_measured += 1
        return True

    def compute(self, system: AtomSystem) -> ForceResult:
        if not self._started:
            self._start()
            self.maintain_neighbors(system, force=True)
        arena = self._arena
        self._publish_state(system)
        self._dispatch(CMD_STEP, fault=self._take_fault("step"))

        np.copyto(system.forces, arena["forces"])
        if system.torques is not None and "torques" in arena:
            np.copyto(system.torques, arena["torques"])
        # Canonical-order reductions: summing the per-atom shared slots
        # by global id makes totals independent of the decomposition.
        # The scalar totals always reduce in float64.
        energy = float(np.sum(arena["energy"], dtype=np.float64))
        virial = float(np.sum(arena["virial"], dtype=np.float64))
        interactions = 0
        per_potential = arena["interactions"].sum(axis=0)
        for slot, potential in enumerate(self.simulation.potentials):
            directed = int(per_potential[slot])
            interactions += directed if potential.needs_full_list else directed // 2

        step_times = arena["timing"][:, 0].copy()
        self.last_step_seconds = step_times
        self.worker_pair_seconds += step_times
        self.worker_pair_cpu_seconds += arena["timing"][:, 1]
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
        symmetry — reduces the pool state to exactly the serial store,
        sorted by key for decomposition-independent output.
        """
        if not self._started:
            return super().export_contact_histories()
        if not self._history_slots:
            return {}
        self._dispatch(CMD_DUMP_HISTORY)
        n = self.simulation.system.n_atoms
        tables: dict[int, tuple] = {}
        for slot in self._history_slots:
            counts = self._arena[f"hist{slot}_count"]
            key_blocks = []
            value_blocks = []
            for worker in range(self.n_workers):
                rows = int(counts[worker])
                key_blocks.append(
                    self._arena[f"hist{slot}_keys"][worker, :rows].copy()
                )
                value_blocks.append(
                    self._arena[f"hist{slot}_values"][worker, :rows].copy()
                )
            keys = np.concatenate(key_blocks)
            values = np.concatenate(value_blocks)
            canonical = (keys // n) < (keys % n)
            keys = keys[canonical]
            values = values[canonical]
            order = np.argsort(keys, kind="stable")
            tables[slot] = (keys[order], values[order])
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
        if self._started:
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
