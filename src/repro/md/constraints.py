"""SHAKE / RATTLE holonomic distance constraints.

The Rhodopsin benchmark adds SHAKE constraints (Andersen, 1983) to hold
rigid bond lengths and angles — in a real all-atom run the waters'
O-H bonds and H-O-H angle, which lets the 2 fs timestep survive.  The
paper's Section 6 notes that SHAKE has *no GPU implementation* in the
reference GPU package, leaving the CPU in charge of the Modify task;
our GPU executor models exactly that.

An H-O-H angle constraint is expressed as a third distance constraint
between the two hydrogens, so everything reduces to pair distances.

Constraints that share an atom couple, so the solver works per
*cluster* (a connected component of the constraint graph), the way
LAMMPS' ``fix shake`` has one routine per cluster shape
(``shake2/3/4/3angle``).  Clusters with the same constraint count ``k``
are solved together as a batch of ``k x k`` linear systems: SHAKE takes
Newton steps on the cluster's multipliers, RATTLE — linear in its
multipliers — one exact solve.
"""

from __future__ import annotations

import numpy as np

from repro.md.atoms import AtomSystem
from repro.md.state import Stateful

__all__ = ["ShakeConstraints"]

#: Smallest ``|det| / prod(row norms)`` (1 for orthogonal rows, 0 for
#: dependent ones) a cluster system may have before it counts as
#: singular: its bond vectors are (nearly) linearly dependent.
_SINGULAR_RATIO = 1e-10


def _cluster_batches(pairs: np.ndarray) -> list[np.ndarray]:
    """Constraint indices grouped by connected cluster, batched by size.

    Returns one ``(C, k)`` array per cluster size ``k`` (ascending):
    row ``c`` lists the constraints of one cluster in input order, and
    clusters appear in the order of their first constraint.
    """
    parent: dict[int, int] = {}

    def find(atom: int) -> int:
        root = parent.setdefault(atom, atom)
        while root != parent[root]:
            root = parent[root]
        parent[atom] = root
        return root

    for a, b in pairs.tolist():
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    clusters: dict[int, list[int]] = {}
    for index, (a, _) in enumerate(pairs.tolist()):
        clusters.setdefault(find(a), []).append(index)
    by_size: dict[int, list[list[int]]] = {}
    for members in clusters.values():
        by_size.setdefault(len(members), []).append(members)
    return [np.array(by_size[k], dtype=np.int64) for k in sorted(by_size)]


def _signs(atom: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """``sign(atom, e)`` for every constraint ``e = (i_e, j_e)`` of the
    same cluster: +1 where ``atom`` is its first atom, -1 where it is its
    second, else 0.  ``(C, k)`` inputs, ``(C, k, k)`` output."""
    return (atom[:, :, None] == i[:, None, :]).astype(float) - (
        atom[:, :, None] == j[:, None, :]
    )


class ShakeConstraints(Stateful):
    """Per-cluster SHAKE position + RATTLE velocity constraint solver.

    Parameters
    ----------
    pairs:
        ``(M, 2)`` atom-index pairs to constrain.
    distances:
        Target distance per pair.
    tolerance:
        Relative convergence tolerance on ``|r^2 - d^2| / d^2``.
    max_iterations:
        Newton-step cap; exceeded only for pathological configurations.
    """

    # SHAKE is stateless across steps; only the iteration diagnostic
    # (exported to metrics) survives a checkpoint.
    STATE = {"last_iterations": "last_iterations"}

    def __init__(
        self,
        pairs: np.ndarray,
        distances: np.ndarray,
        *,
        tolerance: float = 1e-8,
        max_iterations: int = 200,
    ) -> None:
        self.pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        self.distances = np.asarray(distances, dtype=float).reshape(-1)
        if len(self.distances) != len(self.pairs):
            raise ValueError("one target distance per constrained pair required")
        if np.any(self.distances <= 0):
            raise ValueError("constraint distances must be positive")
        self.tolerance = float(tolerance)
        self.max_iterations = int(max_iterations)
        #: Newton steps the last :meth:`apply_positions` took (the
        #: slowest batch's count).
        self.last_iterations = 0
        self._batches = _cluster_batches(self.pairs)
        self._masses: np.ndarray | None = None
        self._inverse_masses = np.empty(0)
        self._couplings: list[np.ndarray] = []

    @property
    def n_constraints(self) -> int:
        return len(self.pairs)

    def _coupled(self, masses: np.ndarray) -> list[np.ndarray]:
        """Each batch's static ``(C, k, k)`` coupling matrix ``K``.

        A multiplier ``g_e`` moves atom ``a`` by ``-sign(a, e) g_e s_e /
        m_a`` along its constraint's vector ``s_e``, so it changes the
        bond vector of constraint ``c = (a, b)`` by ``-K_ce g_e s_e`` with
        ``K_ce = sign(a, e) / m_a - sign(b, e) / m_b``.  Built once per
        set of masses.
        """
        if self._masses is None or not np.array_equal(self._masses, masses):
            self._masses = np.array(masses, dtype=np.float64)
            self._inverse_masses = inverse = 1.0 / self._masses
            self._couplings = []
            for rows in self._batches:
                i, j = self.pairs[rows, 0], self.pairs[rows, 1]
                self._couplings.append(
                    inverse[i][:, :, None] * _signs(i, i, j)
                    - inverse[j][:, :, None] * _signs(j, i, j)
                )
        return self._couplings

    def _solve(self, matrix: np.ndarray, rhs: np.ndarray, rows: np.ndarray):
        """Batched ``matrix @ x = rhs``; a singular cluster system raises
        :class:`RuntimeError` naming the cluster's atoms."""
        scale = np.prod(np.linalg.norm(matrix, axis=2), axis=1)
        singular = ~(np.abs(np.linalg.det(matrix)) > _SINGULAR_RATIO * scale)
        if singular.any():
            atoms = np.unique(self.pairs[rows[np.flatnonzero(singular)[0]]])
            raise RuntimeError(
                f"SHAKE cluster of atoms {atoms.tolist()} has a singular "
                "constraint system (its bond vectors are linearly dependent)"
            )
        return np.linalg.solve(matrix, rhs[..., None])[..., 0]

    def _correct(self, target: np.ndarray, multipliers, vectors, scale: float) -> None:
        """Move each constraint's atoms along ``vectors`` by their
        multipliers, weighted by inverse mass (times ``scale``)."""
        inverse = self._inverse_masses
        i, j = self.pairs[:, 0], self.pairs[:, 1]
        corr = (scale * multipliers)[:, None] * vectors
        np.add.at(target, i, -inverse[i][:, None] * corr)
        np.add.at(target, j, inverse[j][:, None] * corr)

    # ------------------------------------------------------------------
    def apply_positions(
        self, system: AtomSystem, reference_positions: np.ndarray, dt: float
    ) -> None:
        """SHAKE: project post-drift positions back onto the constraints.

        ``reference_positions`` are the pre-drift coordinates whose bond
        vectors ``s`` define the constraint directions (the classic
        SHAKE linearization).  Per cluster, Newton steps on the
        multipliers ``g`` drive ``|r(g)|^2 - d^2`` to zero, where ``r(g)
        = r' - K (g s)`` is the bond vector after the correction; the
        atoms are moved once, at the end.  Velocities receive the
        matching correction ``/ dt`` so the half-step kinetic state
        stays consistent.
        """
        box = system.box
        # The projection iterates to a relative tolerance (1e-8 by
        # default) that float32 state cannot represent, so narrow
        # storage modes solve on float64 working copies and round once
        # at write-back — the same "constraints stay in double" split
        # the reference CPU package makes.
        upcast = system.positions.dtype != np.float64
        positions = (
            system.positions.astype(np.float64) if upcast else system.positions
        )
        velocities = (
            system.velocities.astype(np.float64) if upcast else system.velocities
        )
        i, j = self.pairs[:, 0], self.pairs[:, 1]
        reference = np.asarray(reference_positions, dtype=np.float64)
        ref_dr = box.minimum_image(reference[i] - reference[j])
        dr = box.minimum_image(positions[i] - positions[j])
        d2 = self.distances**2
        multipliers = np.zeros(len(self.pairs))
        iterations = 0
        for rows, coupling in zip(self._batches, self._coupled(system.masses)):
            s, target = ref_dr[rows], d2[rows]
            g = np.zeros(rows.shape)
            for iteration in range(1, self.max_iterations + 1):
                r = dr[rows] - coupling @ (g[:, :, None] * s)
                diff = np.einsum("ckx,ckx->ck", r, r) - target
                if np.all(np.abs(diff) <= self.tolerance * target):
                    break
                # d(diff_c)/d(g_e) = -2 K_ce (r_c . s_e), so the Newton
                # step is g += solve(2 K o (r . s^T), diff).
                slope = 2.0 * coupling * (r @ s.transpose(0, 2, 1))
                g += self._solve(slope, diff, rows)
            else:
                residual = np.abs(diff) / target
                worst = np.unravel_index(np.argmax(residual), residual.shape)
                atoms = np.unique(self.pairs[rows[worst[0]]])
                raise RuntimeError(
                    f"SHAKE failed to converge in {self.max_iterations} iterations: "
                    f"cluster of atoms {atoms.tolist()} still has a relative "
                    f"residual |r^2 - d^2| / d^2 of {residual[worst]:.3g} "
                    f"(tolerance {self.tolerance:g})"
                )
            multipliers[rows] = g
            iterations = max(iterations, iteration - 1)
        self._correct(positions, multipliers, ref_dr, 1.0)
        if dt > 0:
            self._correct(velocities, multipliers, ref_dr, 1.0 / dt)
        self.last_iterations = iterations
        if upcast:
            system.positions[...] = positions
            system.velocities[...] = velocities

    def apply_velocities(self, system: AtomSystem) -> None:
        """RATTLE: remove velocity components along the constraints.

        The relative velocity along constraint ``c`` after the
        correction is ``dv_c . r_c - sum_e K_ce (r_c . r_e) mu_e``, linear
        in the multipliers ``mu``, so one solve per cluster zeroes it.
        """
        box = system.box
        # Same float64 working-copy treatment as apply_positions.
        upcast = system.velocities.dtype != np.float64
        positions = np.asarray(system.positions, dtype=np.float64)
        velocities = (
            system.velocities.astype(np.float64) if upcast else system.velocities
        )
        i, j = self.pairs[:, 0], self.pairs[:, 1]
        dr = box.minimum_image(positions[i] - positions[j])
        dv = velocities[i] - velocities[j]
        multipliers = np.zeros(len(self.pairs))
        for rows, coupling in zip(self._batches, self._coupled(system.masses)):
            r = dr[rows]
            matrix = coupling * (r @ r.transpose(0, 2, 1))
            radial = np.einsum("ckx,ckx->ck", r, dv[rows])
            multipliers[rows] = self._solve(matrix, radial, rows)
        self._correct(velocities, multipliers, dr, 1.0)
        if upcast:
            system.velocities[...] = velocities

    # ------------------------------------------------------------------
    def max_violation(self, system: AtomSystem) -> float:
        """Largest relative constraint violation ``|r - d| / d``."""
        i = self.pairs[:, 0]
        j = self.pairs[:, 1]
        r = system.box.distance(system.positions[i], system.positions[j])
        return float(np.max(np.abs(r - self.distances) / self.distances))
