"""The MD timestep loop (Figure 1 of the paper).

:class:`Simulation` wires together the substrates — neighbor list, pair
potentials, bonded terms, k-space solver, fixes, integrator and
constraints — into the canonical timestep:

I   initial integration            (Modify — integrators are fixes)
II  fixes / constraints            (Modify)
III neighbor-list maintenance      (Neigh)
IV  boundary bookkeeping           (Comm; inter-rank exchange when
                                    decomposed, plain PBC wrap here)
V   pairwise short-range forces    (Pair)
VI  long-range forces              (Kspace)
VII bonded forces                  (Bond)
VIII property computes / output    (Output)

Each phase runs inside the matching :class:`~repro.md.timers.TaskTimers`
slot, so a run yields the same task breakdown the paper measures, plus
the operation counters (pair interactions, rebuild cadence, grid points)
that calibrate the performance model.
"""

from __future__ import annotations

import abc
import time
import weakref
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.md.atoms import AtomSystem
from repro.md.bonded import BondedForce
from repro.md.config import RunConfig
from repro.md.constraints import ShakeConstraints
from repro.md.fixes import Fix
from repro.md.heap import keep_freed_heap
from repro.md.integrators import Integrator, NoseHooverNPT, VelocityVerletNVE
from repro.md.kernels import KernelBackend, get_backend
from repro.md.kspace.base import KSpaceSolver
from repro.md.kernels.tracing import TracingBackend
from repro.md.neighbor import NeighborList
from repro.md.potentials.base import ForceResult, PairPotential
from repro.md.precision import Precision, PrecisionPolicy, policy_for
from repro.md.thermo import ThermoLog
from repro.md.timers import TaskTimers
from repro.observability import MetricsRegistry, resolve_tracer

__all__ = [
    "Simulation",
    "OperationCounts",
    "ForceExecutor",
    "SerialForceExecutor",
]


@dataclass
class OperationCounts:
    """Work counters the performance model reads off a functional run."""

    timesteps: int = 0
    pair_interactions: int = 0
    bond_evaluations: int = 0
    kspace_grid_points: int = 0
    neighbor_builds: int = 0
    shake_iterations: int = 0

    @property
    def pair_interactions_per_step(self) -> float:
        return self.pair_interactions / max(1, self.timesteps)


class ForceExecutor(abc.ABC):
    """Strategy for the Neigh + Pair tasks of the timestep.

    The Simulation owns the step loop, integrators, bonded terms and
    k-space solver; *how* the short-range pair work and its neighbor
    lists are evaluated is delegated here so the same loop can run the
    in-process serial path or the domain-decomposed worker pool of
    :class:`repro.parallel.engine.ParallelForceExecutor` unchanged.
    """

    _simulation_ref: "weakref.ref[Simulation] | None" = None

    def bind(self, simulation: "Simulation") -> None:
        """Attach to the owning simulation (called once, at the end of
        ``Simulation.__init__``, after potentials/neighbor exist).

        The back-reference is weak: the simulation owns its executor,
        and a strong reference the other way would be a cycle that
        keeps a finished simulation (neighbor list and kernel scratch,
        hundreds of MiB at 32k atoms) alive until the cyclic collector
        happens to run.
        """
        self._simulation_ref = weakref.ref(simulation)

    @property
    def simulation(self) -> "Simulation":
        """The owning simulation (raises once it has been freed)."""
        ref = self._simulation_ref
        simulation = None if ref is None else ref()
        if simulation is None:
            raise RuntimeError("force executor is not bound to a live Simulation")
        return simulation

    @abc.abstractmethod
    def maintain_neighbors(self, system: AtomSystem, *, force: bool = False) -> bool:
        """Rebuild neighbor state if stale (or ``force``); True if rebuilt."""

    @abc.abstractmethod
    def compute(self, system: AtomSystem) -> ForceResult:
        """Evaluate all pair potentials into ``system.forces``/``torques``.

        Returns the aggregate energy/virial/interaction totals summed in
        potential order.  Forces (and torques, for granular systems)
        must already be zeroed by the caller.
        """

    def export_contact_histories(self) -> dict[int, tuple]:
        """Per-potential contact-history tables for checkpointing.

        Keys are potential slots; values are ``(keys, values)`` arrays in
        the canonical half-list orientation (``i < j``, displacement
        ``x_i - x_j``).  The serial default reads the potentials' own
        stores; the parallel executor overrides this to collect the
        worker-local stores through shared memory.
        """
        tables: dict[int, tuple] = {}
        for slot, potential in enumerate(self.simulation.potentials):
            if potential.history is not None:
                tables[slot] = potential.history.export()
        return tables

    def import_contact_histories(self, tables: dict[int, tuple]) -> None:
        """Install checkpointed contact histories before resuming."""
        for slot, (keys, values) in tables.items():
            if slot >= len(self.simulation.potentials):
                raise ValueError(
                    f"snapshot stores contact history for potential slot "
                    f"{slot} but the simulation has "
                    f"{len(self.simulation.potentials)} potentials"
                )
            history = self.simulation.potentials[slot].history
            if history is None:
                raise ValueError(
                    f"potential slot {slot} ({type(self.simulation.potentials[slot]).__name__}) "
                    "has no contact history to restore into"
                )
            history.load(keys, values)

    def close(self) -> None:
        """Release executor resources (worker processes, shared memory)."""


class SerialForceExecutor(ForceExecutor):
    """The default in-process executor: one core, one neighbor list."""

    def maintain_neighbors(self, system: AtomSystem, *, force: bool = False) -> bool:
        neighbor = self.simulation.neighbor
        if force:
            neighbor.build(system)
            return True
        return neighbor.ensure(system)

    def compute(self, system: AtomSystem) -> ForceResult:
        total = ForceResult()
        for potential in self.simulation.potentials:
            total += potential.compute(system, self.simulation.neighbor)
        return total


class Simulation:
    """A complete MD experiment: system + force field + integrator.

    Parameters
    ----------
    system:
        The :class:`~repro.md.atoms.AtomSystem` under study.
    potentials:
        Pairwise/many-body potentials (the "Pair" task).
    bonded:
        Bonded terms (the "Bond" task).
    kspace:
        Optional long-range solver (the "Kspace" task).
    integrator:
        Defaults to plain NVE velocity Verlet.
    fixes:
        Per-step fixes (thermostats, gravity, walls — "Modify").
    constraints:
        Optional SHAKE constraint set ("Modify").
    dt:
        Timestep in the experiment's own units.  Performance is always
        reported in timesteps/s regardless of granularity (Section 2).
    skin:
        Neighbor-list skin distance (Table 2's per-benchmark values).
    exclusions:
        Non-bonded exclusion pairs (masked in the neighbor list and
        corrected in k-space).
    thermo_every:
        Output interval ("Output" task).
    backend:
        Kernel backend for the Pair- and Neigh-task hot loops — a
        :class:`~repro.md.kernels.base.KernelBackend` instance, a
        registry name (``"numpy_ref"`` / ``"numpy_fast"`` /
        ``"compiled"``), or ``None`` to fall back to
        ``$REPRO_KERNEL_BACKEND`` and then the default.  ``"compiled"``
        needs a system C compiler and degrades to
        ``numpy_fast`` with a warning otherwise.  One backend instance
        (and hence one set of scratch buffers) is shared by every
        potential and the neighbor list of the simulation.
    tracer:
        Span tracer recording the step timeline — a
        :class:`~repro.observability.Tracer`, ``True`` for a fresh
        default one, or ``None`` to consult ``$REPRO_TRACE`` and fall
        back to the zero-cost disabled tracer.  When enabled, every
        timestep phase, kernel-backend call, neighbor rebuild and
        k-space stage is recorded (Chrome-trace exportable).
    metrics:
        Optional :class:`~repro.observability.MetricsRegistry`; when
        given, each step updates step-duration histograms and work
        gauges (pair interactions, rebuild cadence, energy drift, SHAKE
        iterations, kernel scratch growth).
    force_executor:
        Strategy object evaluating the Neigh + Pair tasks each step.
        Defaults to :class:`SerialForceExecutor`; pass a
        :class:`repro.parallel.engine.ParallelForceExecutor` to run the
        pair work across domain-decomposed worker processes.  Call
        :meth:`close` (or use the simulation as a context manager) when
        the executor holds external resources.
    precision:
        Floating-point mode for the whole engine — a
        :class:`~repro.md.precision.Precision` member, a
        case-insensitive mode name (``"single"`` / ``"mixed"`` /
        ``"double"``), a full
        :class:`~repro.md.precision.PrecisionPolicy`, or ``None`` for
        the float64 default (bitwise-identical to the engine before
        precision modes existed).  When a parallel executor was built
        with its own mode, ``None`` adopts it and a conflicting explicit
        mode raises (in the executor's ``bind``); an executor built
        without one adopts the simulation's.
    """

    def __init__(
        self,
        system: AtomSystem,
        potentials: Sequence[PairPotential] = (),
        *,
        bonded: Sequence[BondedForce] = (),
        kspace: KSpaceSolver | None = None,
        integrator: Integrator | None = None,
        fixes: Sequence[Fix] = (),
        constraints: ShakeConstraints | None = None,
        dt: float = 0.005,
        skin: float = 0.3,
        exclusions: np.ndarray | None = None,
        thermo_every: int = 100,
        backend: KernelBackend | str | None = None,
        tracer=None,
        metrics: MetricsRegistry | None = None,
        force_executor: ForceExecutor | None = None,
        precision: "Precision | str | PrecisionPolicy | None" = None,
    ) -> None:
        # Process-wide, once: step temporaries are reused, not page-
        # faulted back in every step (see repro.md.heap).
        keep_freed_heap()
        self.system = system
        self.potentials = list(potentials)
        self.tracer = resolve_tracer(tracer)
        self.metrics = metrics
        self.force_executor = (
            force_executor if force_executor is not None else SerialForceExecutor()
        )
        #: Active :class:`~repro.md.precision.PrecisionPolicy` — float64
        #: everywhere unless a mode was requested.  An executor that was
        #: constructed with its own mode (the parallel engine types its
        #: shared-memory buffers at start-up) is adopted when no mode
        #: was asked for here; whether the two agree is the executor's
        #: ``bind`` to judge (below), as it is for one attached later.
        executor_policy = getattr(self.force_executor, "precision", None)
        if precision is None and isinstance(executor_policy, PrecisionPolicy):
            self.precision = executor_policy
        else:
            self.precision = policy_for(precision)
        self.system.cast_storage(self.precision.storage_dtype)
        self.backend = get_backend(backend)
        self.backend.set_policy(self.precision)
        if self.tracer.enabled:
            self.backend = TracingBackend(self.backend, self.tracer)
        for potential in self.potentials:
            potential.backend = self.backend
        self.bonded = list(bonded)
        for term in self.bonded:
            term.policy = self.precision
        self.kspace = kspace
        if kspace is not None:
            kspace.tracer = self.tracer
            kspace.policy = self.precision
        self.integrator = integrator if integrator is not None else VelocityVerletNVE()
        self.fixes = list(fixes)
        self.constraints = constraints
        self.dt = float(dt)
        #: Slab geometry: a domain decomposition must not split z.  Set
        #: by the builder of a slab workload (the Chute bed); the
        #: parallel engine reads it when it spawns its pool.
        self.quasi_2d = False
        self.timers = TaskTimers(tracer=self.tracer)
        self.counts = OperationCounts()
        self.thermo = ThermoLog(every=thermo_every)
        #: Total wall-clock spent inside :meth:`step` — by construction
        #: equal to ``timers.total`` because the untimed remainder of
        #: each step is booked under the "Other" task.
        self.step_seconds = 0.0
        self.step_number = 0
        self.potential_energy = 0.0
        self.virial = 0.0

        if self.potentials:
            cutoff = max(p.cutoff for p in self.potentials)
            full = any(p.needs_full_list for p in self.potentials)
        else:
            cutoff, full = 1.0, False
        self.neighbor = NeighborList(
            cutoff, skin, full=full, exclusions=exclusions
        )
        self.neighbor.tracer = self.tracer
        # The neighbor build consults the same backend instance (the
        # compiled backend's native cell-list path; numpy backends
        # decline the hook and keep the vectorized build).
        self.neighbor.kernels = self.backend
        self._setup_done = False
        self._initial_energy: float | None = None
        self.force_executor.bind(self)

    # ------------------------------------------------------------------
    @property
    def n_constraints(self) -> int:
        return 0 if self.constraints is None else self.constraints.n_constraints

    def setup(self) -> None:
        """Initial neighbor build and force evaluation (step 0 state)."""
        self.system.wrap()
        self.force_executor.maintain_neighbors(self.system, force=True)
        self._compute_forces(count=False)
        self._setup_done = True

    def _compute_forces(self, count: bool = True) -> None:
        """Zero and recompute all forces; refresh energy and virial."""
        self.system.forces[:] = 0.0
        if self.system.torques is not None:
            self.system.torques[:] = 0.0
        energy = 0.0
        virial = 0.0
        with self.timers.time("Pair"):
            result = self.force_executor.compute(self.system)
            energy += result.energy
            virial += result.virial
            if count:
                self.counts.pair_interactions += result.interactions
        with self.timers.time("Bond"):
            for term in self.bonded:
                result = term.compute(self.system)
                energy += result.energy
                virial += result.virial
                if count:
                    self.counts.bond_evaluations += result.interactions
        with self.timers.time("Kspace"):
            if self.kspace is not None:
                result = self.kspace.compute(self.system)
                energy += result.energy
                virial += result.virial
                if count:
                    self.counts.kspace_grid_points += result.interactions
        self.potential_energy = energy
        self.virial = virial
        if (
            not np.isfinite(energy)
            or not np.all(np.isfinite(self.system.forces))
            or not np.all(np.isfinite(self.system.positions))
        ):
            raise FloatingPointError(
                f"non-finite forces/energy at step {self.step_number} — "
                "the configuration blew up (timestep too large, overlapping "
                "atoms, or an unstable thermostat setting)"
            )
        if isinstance(self.integrator, NoseHooverNPT):
            self.integrator.set_virial(virial)

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the system by one timestep (Figure 1, steps I-VIII).

        Every phase runs under its Table 1 task timer; whatever loop
        overhead falls between the timed regions is accumulated into
        the "Other" task at the end of the step, so the per-task
        breakdown sums exactly to the measured step wall-clock (the
        same bookkeeping LAMMPS' timing table uses).
        """
        tracer = self.tracer
        step_start = time.perf_counter()
        if tracer.enabled:
            tracer.begin("step", "step", ts=step_start)
        timed_before = self.timers.total
        if not self._setup_done:
            self.setup()
        self.step_number += 1
        self.counts.timesteps += 1

        # I/II - initial integration and position constraints (Modify).
        with self.timers.time("Modify"):
            if self.constraints is not None:
                reference = self.system.positions.copy()
            self.integrator.initial_integrate(self.system, self.dt)
            if self.constraints is not None:
                self.constraints.apply_positions(self.system, reference, self.dt)
                self.counts.shake_iterations += self.constraints.last_iterations

        # IV - boundary bookkeeping (in a decomposed run: ghost exchange).
        with self.timers.time("Comm"):
            self.system.wrap()

        # III - neighbor-list maintenance.
        with self.timers.time("Neigh"):
            if self.force_executor.maintain_neighbors(self.system):
                self.counts.neighbor_builds += 1

        # V/VI/VII - force computation (timed per task inside).
        self._compute_forces()

        # Post-force fixes, final integration, velocity constraints.
        with self.timers.time("Modify"):
            for fix in self.fixes:
                fix.post_force(self.system, self.dt, self.step_number)
            self.integrator.final_integrate(self.system, self.dt)
            if self.constraints is not None:
                self.constraints.apply_velocities(self.system)

        # VIII - thermodynamic output.
        with self.timers.time("Output"):
            if self.thermo.should_log(self.step_number):
                self.thermo.record(
                    self.step_number,
                    self.system,
                    self.potential_energy,
                    self.virial,
                    self.n_constraints,
                )

        # Book the untimed remainder of the step as "Other" so the task
        # breakdown accounts for 100% of the step wall-clock.
        step_end = time.perf_counter()
        elapsed = step_end - step_start
        timed_delta = self.timers.total - timed_before
        self.timers.seconds["Other"] += max(0.0, elapsed - timed_delta)
        self.step_seconds += max(elapsed, timed_delta)
        if tracer.enabled:
            tracer.end(ts=step_end)
        if self.metrics is not None:
            self._record_step_metrics(elapsed)

    def run(self, n_steps: "int | RunConfig") -> None:
        """Run the timesteps a :class:`~repro.md.config.RunConfig` asks for.

        ``run`` takes one argument, either a config object::

            sim.run(RunConfig(steps=1000, reset_timers=True))

        which also carries the run's precision mode, kernel backend,
        tracer and checkpoint/digest hooks (see
        :class:`~repro.md.config.RunConfig`), or a bare integer step
        count — ``sim.run(1000)`` is ``sim.run(RunConfig(1000))``.  For
        crash *recovery* on top of periodic checkpoints, drive the loop
        through :class:`repro.reliability.ResilientRunner` instead.
        """
        config = n_steps if isinstance(n_steps, RunConfig) else RunConfig(n_steps)

        if config.tracer is not None:
            self.attach_tracer(config.tracer)
        if config.backend is not None:
            self.set_backend(config.backend)
        if config.precision is not None:
            self.set_precision(config.precision)
        if config.reset_timers:
            self.reset_timers()
        for _ in range(config.steps):
            self.step()
            if config.checkpoint is not None:
                config.checkpoint.maybe_checkpoint(self)
            if config.digest is not None:
                config.digest.maybe_record(self)

    def reset_timers(self) -> None:
        """Zero the per-task timers and the step wall-clock accumulator."""
        self.timers.reset()
        self.step_seconds = 0.0

    def close(self) -> None:
        """Release force-executor resources (workers, shared memory)."""
        self.force_executor.close()

    def __enter__(self) -> "Simulation":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def set_precision(
        self, precision: "Precision | str | PrecisionPolicy"
    ) -> None:
        """Switch the active precision policy in place (serial engine).

        Casts the master per-atom state to the new storage dtype,
        re-points every kernel/bonded/k-space layer at the new compute
        dtype, and schedules a fresh neighbor build + force evaluation
        so the next step runs entirely under the new mode.  Parallel
        executors type their shared-memory buffers at start-up, so a
        mode change there requires constructing a new executor.
        """
        policy = policy_for(precision)
        if policy == self.precision:
            return
        if not isinstance(self.force_executor, SerialForceExecutor):
            raise ValueError(
                "cannot change precision on a non-serial force executor — "
                "its buffers are typed at start-up; construct a new executor "
                f"with precision='{policy.mode.value}' instead"
            )
        self.precision = policy
        self.system.cast_storage(policy.storage_dtype)
        self.backend.set_policy(policy)
        for term in self.bonded:
            term.policy = policy
        if self.kspace is not None:
            self.kspace.policy = policy
        # Neighbor state and step-0 forces were built under the old
        # dtype; redo both before the next step.
        self._setup_done = False

    def set_backend(self, backend: "KernelBackend | str") -> None:
        """Swap the kernel backend, preserving tracing and precision."""
        new = get_backend(backend)
        new.set_policy(self.precision)
        self.backend = (
            TracingBackend(new, self.tracer) if self.tracer.enabled else new
        )
        for potential in self.potentials:
            potential.backend = self.backend
        self.neighbor.kernels = self.backend

    # ------------------------------------------------------------------
    def attach_tracer(self, tracer) -> None:
        """(Re)wire a span tracer through every instrumented layer.

        Accepts the same specs as the constructor's ``tracer`` argument;
        useful for instrumenting a simulation a suite builder already
        assembled.  Passing ``None`` (with ``$REPRO_TRACE`` unset)
        detaches tracing and unwraps the kernel backend.
        """
        tracer = resolve_tracer(tracer)
        self.tracer = tracer
        self.timers.tracer = tracer
        self.neighbor.tracer = tracer
        if self.kspace is not None:
            self.kspace.tracer = tracer
        inner = getattr(self.backend, "inner", self.backend)
        self.backend = TracingBackend(inner, tracer) if tracer.enabled else inner
        for potential in self.potentials:
            potential.backend = self.backend
        self.neighbor.kernels = self.backend

    def attach_metrics(self, metrics: MetricsRegistry | None) -> None:
        """Attach (or detach, with ``None``) a metrics registry."""
        self.metrics = metrics

    def _record_step_metrics(self, elapsed: float) -> None:
        """Per-step registry update (only runs with metrics attached)."""
        metrics = self.metrics
        metrics.counter("md_steps_total").inc()
        metrics.histogram("md_step_seconds").observe(elapsed)
        metrics.counter("md_pair_interactions_total").sync_total(
            self.counts.pair_interactions
        )
        metrics.counter("md_neighbor_builds_total").sync_total(
            self.counts.neighbor_builds
        )
        stats = self.neighbor.stats
        metrics.gauge("md_neighbor_pairs").set(stats.last_pairs)
        metrics.gauge("md_neighbor_rebuild_every").set(
            0.0 if stats.n_builds == 0 else stats.total_steps / stats.n_builds
        )
        total_energy = self.total_energy()
        if self._initial_energy is None:
            self._initial_energy = total_energy
        denom = abs(self._initial_energy)
        metrics.gauge("md_energy_drift_rel").set(
            (total_energy - self._initial_energy) / denom if denom > 0 else 0.0
        )
        if self.constraints is not None:
            metrics.counter("md_shake_iterations_total").sync_total(
                self.counts.shake_iterations
            )
            metrics.gauge("md_shake_iterations_last").set(
                self.constraints.last_iterations
            )
        inner = getattr(self.backend, "inner", self.backend)
        metrics.gauge("md_kernel_scratch_capacity_pairs").set(
            getattr(inner, "_capacity", 0)
        )

    # ------------------------------------------------------------------
    def total_energy(self) -> float:
        return self.system.kinetic_energy() + self.potential_energy

    def task_breakdown(self) -> dict[str, float]:
        """Fraction of run time per Table 1 task."""
        return self.timers.fractions()

    def timesteps_per_second(self) -> float:
        """Measured functional-engine throughput (TS/s)."""
        total = self.timers.total
        if total <= 0:
            return float("inf")
        return self.counts.timesteps / total
