"""Hookean granular contact with frictional history (``gran/hooke/history``).

The Chute benchmark simulates a chute flow of packed granular particles
with a Hookean-style contact law (Brilliantov et al., 1996).  The
*history* variant tracks the accumulated tangential displacement of each
contact for as long as the two particles touch; that per-contact state
is exactly what makes this pair style irregular compared to the
stateless analytic potentials, and (per Section 3 of the paper) it does
not exploit Newton's third law to halve the pair work — which is why
:attr:`HookeHistory.needs_full_list` is true and the Pair-task work
measure counts both directions.
"""

from __future__ import annotations

import numpy as np

from repro.md.potentials.base import PairPotential, PairRows

__all__ = ["HookeHistory", "ContactHistory"]


class ContactHistory:
    """Tangential-displacement store keyed by unordered contact pairs.

    Histories survive neighbor-list rebuilds: :meth:`sync` re-aligns the
    stored vectors with a new pair ordering and drops contacts that have
    separated beyond the list cutoff.
    """

    def __init__(self) -> None:
        self._keys = np.empty(0, dtype=np.int64)
        self._values = np.empty((0, 3), dtype=float)

    def __len__(self) -> int:
        return len(self._keys)

    def sync(self, keys: np.ndarray) -> np.ndarray:
        """Return histories aligned with ``keys`` (new contacts start at 0)."""
        values = np.zeros((len(keys), 3), dtype=float)
        if len(self._keys):
            order = np.argsort(keys, kind="stable")
            sorted_keys = keys[order]
            pos = np.searchsorted(sorted_keys, self._keys)
            pos = np.minimum(pos, len(keys) - 1) if len(keys) else pos
            if len(keys):
                hit = sorted_keys[pos] == self._keys
                values[order[pos[hit]]] = self._values[hit]
        self._keys = keys
        self._values = values
        return self._values

    def store(self, values: np.ndarray) -> None:
        self._values = values

    def export(self) -> tuple[np.ndarray, np.ndarray]:
        """Copy out the ``(keys, values)`` store for serialization."""
        return self._keys.copy(), self._values.copy()

    def load(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Replace the store (the checkpoint/restart path).

        The next :meth:`sync` re-aligns these entries with whatever pair
        ordering the restored neighbor state produces, so the keys may
        be a superset of the currently touching contacts.
        """
        keys = np.asarray(keys, dtype=np.int64).reshape(-1)
        values = np.asarray(values, dtype=float).reshape(-1, 3)
        if len(keys) != len(values):
            raise ValueError("contact history needs one value row per key")
        self._keys = keys.copy()
        self._values = values.copy()


class HookeHistory(PairPotential):
    """Damped Hookean normal contact + history-tracked tangential friction.

    Parameters follow LAMMPS ``pair_style gran/hooke/history``:

    * normal spring ``k_n`` and damping ``gamma_n``,
    * tangential spring ``k_t`` and damping ``gamma_t``,
    * Coulomb friction coefficient ``mu`` capping the tangential force,
    * the integrator timestep ``dt`` used to accumulate the tangential
      displacement history.
    """

    needs_full_list = True
    needs_velocities = True

    def __init__(
        self,
        k_n: float = 200000.0,
        k_t: float | None = None,
        gamma_n: float = 50.0,
        gamma_t: float | None = None,
        mu: float = 0.5,
        *,
        dt: float = 1e-4,
        max_radius: float = 0.5,
    ) -> None:
        self.k_n = float(k_n)
        self.k_t = float(k_t) if k_t is not None else 2.0 / 7.0 * self.k_n
        self.gamma_n = float(gamma_n)
        self.gamma_t = float(gamma_t) if gamma_t is not None else 0.5 * self.gamma_n
        self.mu = float(mu)
        self.dt = float(dt)
        # Contact happens at r < R_i + R_j; the neighbor list is built on
        # centre distance, so the "cutoff" is twice the largest radius.
        self.cutoff = 2.0 * float(max_radius)
        self.history = ContactHistory()

    def contact_terms(
        self,
        dr: np.ndarray,
        r: np.ndarray,
        radius_i: np.ndarray,
        radius_j: np.ndarray,
        mass_i: np.ndarray,
        mass_j: np.ndarray,
        v_i: np.ndarray,
        v_j: np.ndarray,
        omega_i: np.ndarray | None,
        omega_j: np.ndarray | None,
        xi: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-contact physics for touching pairs with ``dr = x_i - x_j``.

        Returns ``(f_i, torque, xi_new, pair_energy, pair_virial)`` where
        ``f_i`` is the force on atom ``i`` (atom ``j`` receives ``-f_i``),
        ``torque`` is the shared tangential moment vector — each side
        scatters ``-radius * torque`` — and ``pair_energy``/``pair_virial``
        are whole-pair quantities.  Every term is odd or even under the
        direction swap ``(i, j, dr) -> (j, i, -dr)`` exactly as Newton's
        third law requires, so evaluating the *directed* pair on each
        atom's owner (the parallel engine's newton-off scheme) reproduces
        this serial two-sided evaluation bit for bit.
        """
        n_hat = dr / r[:, None]
        delta = (radius_i + radius_j) - r
        m_eff = mass_i * mass_j / (mass_i + mass_j)

        # Relative velocity at the contact point (translational + spin).
        v_rel = v_i - v_j
        if omega_i is not None:
            spin = radius_i[:, None] * omega_i + radius_j[:, None] * omega_j
            v_rel = v_rel - np.cross(spin, n_hat)
        v_n = np.einsum("ij,ij->i", v_rel, n_hat)
        v_n_vec = v_n[:, None] * n_hat
        v_t_vec = v_rel - v_n_vec

        # Normal force: Hookean spring + velocity damping.
        f_n_mag = self.k_n * delta - self.gamma_n * m_eff * v_n
        f_n_vec = f_n_mag[:, None] * n_hat

        # Tangential: integrate history, project it into the current
        # tangent plane, spring + damping, Coulomb cap.
        xi = xi + v_t_vec * self.dt
        xi = xi - np.einsum("ij,ij->i", xi, n_hat)[:, None] * n_hat
        f_t_vec = -self.k_t * xi - self.gamma_t * m_eff[:, None] * v_t_vec
        f_t_mag = np.linalg.norm(f_t_vec, axis=1)
        cap = self.mu * np.abs(f_n_mag)
        over = f_t_mag > np.maximum(cap, 1e-300)
        if np.any(over):
            scale = np.where(over, cap / np.maximum(f_t_mag, 1e-300), 1.0)
            f_t_vec = f_t_vec * scale[:, None]
            # Rescale the stored history so the spring is consistent with
            # the capped force (LAMMPS does the same truncation).
            xi = np.where(over[:, None], -f_t_vec / self.k_t, xi)

        f_total = f_n_vec + f_t_vec
        torque = np.cross(n_hat, f_t_vec)
        # Elastic contact energy (normal spring only; damping and sliding
        # friction are dissipative, so total energy is *not* conserved —
        # the Chute tests assert dissipation instead).
        pair_energy = 0.5 * self.k_n * delta * delta
        pair_virial = np.einsum("ij,ij->i", dr, f_total)
        return f_total, torque, xi, pair_energy, pair_virial

    def terms(self, rows: PairRows) -> int:
        radii = rows.per_atom("radii")
        if radii is None:
            raise ValueError("HookeHistory needs a granular system (radii set)")
        # Physics is evaluated once per unordered pair; the full list the
        # simulation keeps (newton off) is reflected in `interactions`.
        pairs = rows.within(self.cutoff)
        pairs = pairs[pairs.r < radii[pairs.i] + radii[pairs.j]]
        # Synced even with nothing touching, so separated contacts drop.
        xi = self.history.sync(rows.contact_keys(pairs))
        if len(pairs) == 0:
            return pairs.interactions

        # Per-pair gathers follow the geometry's (compute) dtype; the
        # tangential history deliberately stays float64 — it is restart
        # state, and the f32 -> f64 promotion where it enters the math
        # keeps its round-trip exact in every mode.
        i, j, ct = pairs.i, pairs.j, pairs.dr.dtype
        masses, velocities, omega = (
            rows.per_atom(name) for name in ("masses", "velocities", "omega")
        )
        f_total, torque, xi, pair_energy, pair_virial = self.contact_terms(
            pairs.dr,
            pairs.r,
            radii[i].astype(ct, copy=False),
            radii[j].astype(ct, copy=False),
            masses[i].astype(ct, copy=False),
            masses[j].astype(ct, copy=False),
            velocities[i].astype(ct, copy=False),
            velocities[j].astype(ct, copy=False),
            omega[i].astype(ct, copy=False) if omega is not None else None,
            omega[j].astype(ct, copy=False) if omega is not None else None,
            xi,
        )
        self.history.store(xi)

        rows.add_vector(pairs, f_total)
        if omega is not None:
            # Contact torques from the tangential force, one per end.
            for end in rows.ends(pairs):
                rows.push("torques", end, -radii[end][:, None] * torque)
        rows.add_energy(i, pair_energy)
        rows.add_virial(i, pair_virial)
        return pairs.interactions

    @property
    def active_contacts(self) -> int:
        """Number of currently touching pairs with stored history."""
        return len(self.history)
