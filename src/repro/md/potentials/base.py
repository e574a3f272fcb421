"""Common interface for pairwise and many-body potentials.

A potential is *one* force body, :meth:`PairPotential.terms`, written
against a :class:`PairRows` view of the neighbor rows.  Two drivers
implement that view: the serial :class:`StoredRows` here (the stored
half or full list, Newton's third law on) and the engine worker's
:class:`repro.parallel.forces.OwnerRows` (directed rows, owner-writes).
The body accumulates forces, energy and the pair virial (needed by the
pressure compute and hence by the NPT barostat that Rhodopsin uses)
through the view's verbs and never learns which driver it runs under.

The serial driver also times what it hands the backend: each verb's
call is one ``"kernel"``-category span in the tracer of the neighbor
list it reads (the shared no-op unless a simulation is traced).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.md.atoms import AtomSystem
from repro.md.kernels import KernelBackend, get_backend
from repro.md.neighbor import NeighborList
from repro.observability.tracer import NULL_TRACER

__all__ = ["ForceResult", "PairPotential", "PairRows", "Pairs", "StoredRows"]


@dataclass
class ForceResult:
    """Outcome of one force evaluation.

    ``virial`` is the scalar pair virial ``sum_ij r_ij . f_ij`` with each
    pair counted once; the pressure compute divides it by ``3 V``.
    ``interactions`` counts evaluated pairs — the quantity the paper's
    complexity analysis calls ``N * npa_avg`` and that our performance
    model uses as the Pair-task work measure.
    """

    energy: float = 0.0
    virial: float = 0.0
    interactions: int = 0

    def __iadd__(self, other: "ForceResult") -> "ForceResult":
        self.energy += other.energy
        self.virial += other.virial
        self.interactions += other.interactions
        return self


class Pairs:
    """The rows inside a cutoff, as :meth:`PairRows.within` hands them out.

    ``i``/``j`` index the view's per-atom arrays, ``dr = x_i - x_j``
    under the minimum image and ``r`` its norm, both in the compute
    dtype.  ``interactions`` is what the driver answers for in the
    Pair-task work count — the stored rows inside the cutoff, which a
    view may have narrowed (one orientation of a full list) or widened
    (an engine worker's ghost-headed rows) before handing them out.
    """

    __slots__ = ("i", "j", "dr", "r", "_r2", "interactions")

    def __init__(self, i, j, dr, r, r2=None, interactions=None) -> None:
        self.i, self.j, self.dr, self.r, self._r2 = i, j, dr, r, r2
        self.interactions = len(i) if interactions is None else interactions

    @property
    def r2(self) -> np.ndarray:
        """Squared distances: the driver's own where its geometry pass
        kept them, else ``r * r`` on first use."""
        if self._r2 is None:
            self._r2 = self.r * self.r
        return self._r2

    def __len__(self) -> int:
        return len(self.i)

    def __getitem__(self, keep) -> "Pairs":
        r2 = None if self._r2 is None else self._r2[keep]
        return Pairs(
            self.i[keep], self.j[keep], self.dr[keep], self.r[keep], r2,
            self.interactions,
        )


class PairRows(abc.ABC):
    """What a force body sees of the neighbor rows, and where it writes.

    A *pair-symmetric* term (every analytic pair style, EAM, the
    granular contact) is handed each unordered pair so that its energy
    and virial count once: newton on, a driver writes both ends at
    weight 1; owner-writes, it sees both orientations, writes the head
    only and takes half.  A *directed* term (Tersoff, whose ``b_ij !=
    b_ji``) is its own term per ordered pair at weight 1 and writes
    whichever atoms it names.  The body says which it is in
    :meth:`within`; the verbs below then do the right thing.
    """

    #: The kernel backend every primitive goes through.
    backend: KernelBackend
    #: What a fused route is looked up by beside the closed form:
    #: ``"half"``/``"full"`` (a stored list) or ``"owner"``.
    kind: str
    #: Where the ``"kernel"`` spans of this pass go.
    tracer = NULL_TRACER

    @abc.abstractmethod
    def per_atom(self, name: str) -> np.ndarray | None:
        """Per-atom array (``types``, ``charges``, ``masses``, ``radii``,
        ``velocities``, ``omega``) indexed as the rows index atoms."""

    @abc.abstractmethod
    def within(
        self, cutoff: float, *, directed: bool = False, ghost_heads: bool = False
    ) -> Pairs:
        """Rows currently inside ``cutoff``, with fresh geometry.

        ``ghost_heads`` (implied by ``directed``) also hands out rows
        headed by atoms the driver does not write — an engine worker's
        halo; a body whose terms read their partners' complete rows asks
        for them.  Such rows feed :meth:`partner_sum` and :meth:`push`;
        every other verb drops them.
        """

    @abc.abstractmethod
    def ends(self, pairs: Pairs) -> tuple[np.ndarray, ...]:
        """The index arrays a symmetric body :meth:`push`\\ es per-end
        terms to: ``(i, j)`` newton on, ``(i,)`` owner-writes."""

    @abc.abstractmethod
    def contact_keys(self, pairs: Pairs) -> np.ndarray:
        """One int64 per row naming its contact across rebuilds."""

    @abc.abstractmethod
    def add_vector(self, pairs: Pairs, fvec: np.ndarray) -> None:
        """Pair force ``fvec`` on ``i``, its negative on ``j``."""

    def add_radial(self, pairs: Pairs, f_over_r: np.ndarray) -> None:
        """Pair force ``f_over_r * dr`` on ``i``, its negative on ``j``
        (a driver may fuse the scaling into its scatter)."""
        self.add_vector(pairs, f_over_r[:, None] * pairs.dr)

    @abc.abstractmethod
    def push(self, name: str, index: np.ndarray, values: np.ndarray) -> None:
        """Add ``values`` to rows ``index`` of ``forces`` or ``torques``
        (atoms the driver does not write are dropped)."""

    @abc.abstractmethod
    def partner_sum(self, pairs: Pairs, values: np.ndarray) -> np.ndarray:
        """Per atom, the sum of a symmetric per-pair value over all its
        partners (EAM's density), in the accumulate dtype."""

    @abc.abstractmethod
    def add_energy(self, index: np.ndarray, values: np.ndarray) -> None:
        """Per-term energies, attributed to atoms ``index`` (row heads)."""

    @abc.abstractmethod
    def add_atom_energy(self, values: np.ndarray) -> None:
        """Per-atom energies over the view's atoms (EAM's embedding)."""

    @abc.abstractmethod
    def add_virial(self, index: np.ndarray, values: np.ndarray) -> None:
        """Per-term virials ``r . f``, attributed like :meth:`add_energy`."""


class StoredRows(PairRows):
    """The serial driver: the stored list, Newton's third law on.

    Both ends of every pair are written, every term counts whole, and
    the scalar totals reduce by ``np.sum`` in float64 (an exact O(M)
    upcast under the reduced-precision policies).
    """

    def __init__(
        self, system: AtomSystem, neighbors: NeighborList, backend: KernelBackend
    ) -> None:
        if neighbors._positions_at_build is None:
            raise RuntimeError("neighbor list has never been built")
        self.system, self.neighbors, self.backend = system, neighbors, backend
        self.kind = "full" if neighbors.full else "half"
        self.tracer = neighbors.tracer
        self.energy = 0.0
        self.virial = 0.0

    def per_atom(self, name):
        return getattr(self.system, name)

    def within(self, cutoff, *, directed=False, ghost_heads=False):
        with self.tracer.span("kernel.current_pairs", "kernel"):
            i, j, dr, r = self.backend.current_pairs(
                self.system, self.neighbors, cutoff
            )
        pairs = Pairs(i, j, dr, r)
        if self.neighbors.full and not directed:
            # A symmetric term over both stored orientations: evaluate
            # one; the work count keeps both (newton off, Section 3).
            pairs = pairs[i < j]
        return pairs

    def ends(self, pairs):
        return pairs.i, pairs.j

    def contact_keys(self, pairs):
        return pairs.i * np.int64(self.system.n_atoms) + pairs.j

    def add_radial(self, pairs, f_over_r):
        with self.tracer.span("kernel.accumulate", "kernel"):
            self.backend.accumulate_scaled_pair_forces(
                self.system.forces, pairs.i, pairs.j, pairs.dr, f_over_r
            )

    def add_vector(self, pairs, fvec):
        with self.tracer.span("kernel.accumulate", "kernel"):
            self.backend.accumulate_pair_forces(
                self.system.forces, pairs.i, pairs.j, fvec
            )

    def push(self, name, index, values):
        with self.tracer.span("kernel.scatter_add", "kernel"):
            self.backend.scatter_add(getattr(self.system, name), index, values)

    def partner_sum(self, pairs, values):
        total = np.zeros(
            self.system.n_atoms, dtype=self.backend.policy.accumulate_dtype
        )
        for index in (pairs.i, pairs.j):
            with self.tracer.span("kernel.scatter_add", "kernel"):
                self.backend.scatter_add(total, index, values)
        return total

    def add_energy(self, index, values):
        self.energy += float(np.sum(values, dtype=np.float64))

    def add_atom_energy(self, values):
        self.add_energy(None, values)

    def add_virial(self, index, values):
        self.virial += float(np.sum(values, dtype=np.float64))


class PairPotential(abc.ABC):
    """Base class for potentials evaluated over a neighbor list."""

    #: Interaction cutoff; the neighbor list must be built with at least
    #: this cutoff.
    cutoff: float

    #: True when the potential needs both pair directions (``newton off``):
    #: the granular history potential and Tersoff do.
    needs_full_list: bool = False

    #: Whether :meth:`AnalyticPairPotential.pair_terms` reads the
    #: per-pair type / charge arrays.  When false the (large) gathers
    #: are skipped and ``None`` is passed instead.
    needs_types: bool = True
    needs_charges: bool = False

    #: LAMMPS-style name of the closed form a backend may evaluate in
    #: place of :meth:`terms` (``"lj/cut"``, ``"eam/alloy"``,
    #: ``"lj/charmm/coul/long"``, ``"tersoff"``), reading the same
    #: attributes the body reads; ``None`` always runs the body.
    closed_form: str | None = None

    #: Whether the body reads per-atom velocities (a driver that ships
    #: state to workers skips them otherwise).
    needs_velocities: bool = False

    #: Per-contact state the body keeps between steps, for the classes
    #: that have any (``ContactHistory``); what checkpoints and the
    #: engine's rebuild hand-over look for.
    history = None

    _backend: KernelBackend | None = None

    @property
    def backend(self) -> KernelBackend:
        """The kernel backend force evaluation runs on.

        Unset potentials resolve lazily through
        :func:`repro.md.kernels.get_backend` (to ``numpy_fast``), the
        one resolver, and a string assigned here goes through it too;
        the owning :class:`~repro.md.simulation.Simulation` assigns its
        shared backend to every potential at construction.
        """
        if self._backend is None:
            self._backend = get_backend()
        return self._backend

    @backend.setter
    def backend(self, value: KernelBackend | str | None) -> None:
        self._backend = None if value is None else get_backend(value)

    def require_list_kind(self, neighbors: NeighborList) -> None:
        """Refuse a half list when :attr:`needs_full_list` is set.

        A full-list potential walks each atom's *complete* row; over a
        half list it silently drops the partners stored under the other
        atom.  ``Simulation`` always builds the right kind, so this only
        fires for lists built by hand.
        """
        if self.needs_full_list and not neighbors.full:
            raise ValueError(
                f"{type(self).__name__} needs both directions of every "
                "pair: build the list with NeighborList(full=True)"
            )

    @abc.abstractmethod
    def terms(self, rows: PairRows) -> int:
        """The force body: accumulate this potential's terms through
        ``rows`` and return the interactions evaluated."""

    def system_terms(self, n_atoms: int, volume: float) -> tuple[float, float]:
        """``(energy, virial)`` that depend on the system as a whole, not
        on any row (the LJ tail correction).  Whichever driver runs adds
        them once per evaluation — the engine on the master."""
        return 0.0, 0.0

    def evaluate(self, rows: PairRows) -> int:
        """One force pass over ``rows`` — a fused kernel when the backend
        takes this closed form and row kind, else :meth:`terms` —
        returning the interaction count.  What both drivers call."""
        fused = None
        if self.closed_form is not None:
            # The span also covers a declined call: the body's verbs
            # that follow record their own.
            with rows.tracer.span("kernel.pair_forces", "kernel"):
                fused = rows.backend.pair_forces(self, rows)
        return self.terms(rows) if fused is None else fused

    def compute(self, system: AtomSystem, neighbors: NeighborList) -> ForceResult:
        """Accumulate forces into ``system.forces`` and return totals:
        the serial driver of :meth:`evaluate`."""
        self.require_list_kind(neighbors)
        rows = StoredRows(system, neighbors, self.backend)
        interactions = self.evaluate(rows)
        energy, virial = self.system_terms(system.n_atoms, system.box.volume)
        return ForceResult(rows.energy + energy, rows.virial + virial, interactions)

    def halo_width(self, list_cutoff: float) -> float:
        """Ghost-shell width a subdomain needs to evaluate owned atoms.

        For plain pairwise interactions the neighbor-list cutoff
        (``cutoff + skin``) suffices: every partner of an owned atom lies
        within it for the whole rebuild interval.  Many-body potentials
        whose per-atom terms depend on *their partners'* environments
        (EAM's embedding density) must widen this so halo atoms also see
        complete neighbor rows — and a subdomain then keeps the rows
        those atoms head, which :meth:`PairRows.within` hands out as
        ``ghost_heads``.
        """
        return float(list_cutoff)

    def energy_only(self, system: AtomSystem, neighbors: NeighborList) -> float:
        """Potential energy of the current configuration (forces restored)."""
        saved = system.forces.copy()
        system.forces[:] = 0.0
        result = self.compute(system, neighbors)
        system.forces[:] = saved
        return result.energy


class AnalyticPairPotential(PairPotential):
    """Convenience base for purely pairwise potentials.

    Subclasses implement :meth:`pair_terms`, returning per-pair energy
    and ``f_over_r``; accumulation, virial and bookkeeping live here.
    """

    @abc.abstractmethod
    def pair_terms(
        self,
        r: np.ndarray,
        r2: np.ndarray,
        type_i: np.ndarray,
        type_j: np.ndarray,
        q_i: np.ndarray,
        q_j: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return per-pair ``(energy, f_over_r)`` arrays.

        ``type_i``/``type_j`` and ``q_i``/``q_j`` are only gathered (and
        non-``None``) when the class opts in via :attr:`needs_types` /
        :attr:`needs_charges` — skipping those per-pair gathers is a
        measurable win at benchmark pair counts.
        """

    def terms(self, rows: PairRows) -> int:
        pairs = rows.within(self.cutoff)
        if len(pairs) == 0:
            return pairs.interactions
        type_i = type_j = q_i = q_j = None
        if self.needs_types:
            types = rows.per_atom("types")
            type_i, type_j = types[pairs.i], types[pairs.j]
        if self.needs_charges:
            # Static charges stay float64 in storage; the per-pair
            # gathers are cast to the geometry's (compute) dtype so
            # reduced-precision modes never silently promote back to
            # f64 mid-formula.
            charges, ct = rows.per_atom("charges"), pairs.dr.dtype
            q_i = charges[pairs.i].astype(ct, copy=False)
            q_j = charges[pairs.j].astype(ct, copy=False)
        energy, f_over_r = self.pair_terms(
            pairs.r, pairs.r2, type_i, type_j, q_i, q_j
        )
        rows.add_radial(pairs, f_over_r)
        rows.add_energy(pairs.i, energy)
        rows.add_virial(pairs.i, f_over_r * pairs.r2)
        return pairs.interactions
