"""Time integrators: velocity Verlet NVE and Nose-Hoover NVT/NPT.

Section 2 of the paper: all suite experiments except Rhodopsin use plain
``NVE`` velocity-Verlet integration (Swope et al., 1982); Rhodopsin uses
``NPT`` — Nose-Hoover style non-Hamiltonian equations of motion that
regulate both temperature and pressure.  In LAMMPS the integrator is a
*fix*, so its runtime lands in the "Modify" task of Table 1; the
simulation loop accounts for it the same way.
"""

from __future__ import annotations

import abc
import math

from repro.md.atoms import AtomSystem

__all__ = ["Integrator", "VelocityVerletNVE", "NoseHooverNVT", "NoseHooverNPT"]


class Integrator(abc.ABC):
    """Velocity-Verlet split: a half step before and after the forces."""

    @abc.abstractmethod
    def initial_integrate(self, system: AtomSystem, dt: float) -> None:
        """Half-kick velocities and drift positions (steps I of Fig. 1)."""

    @abc.abstractmethod
    def final_integrate(self, system: AtomSystem, dt: float) -> None:
        """Second velocity half-kick once new forces are known."""

    def state_dict(self) -> dict:
        """Dynamical state that must survive a checkpoint/restart.

        Construction parameters (targets, damping times) are *not*
        included — a restart rebuilds the integrator from the deck and
        only reloads the evolving variables, so restoring into a
        differently configured integrator is an error the snapshot
        layer detects via the type tag.
        """
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore the variables :meth:`state_dict` captured."""
        if state:
            raise ValueError(
                f"{type(self).__name__} carries no dynamical state but the "
                f"snapshot provides {sorted(state)}"
            )


class VelocityVerletNVE(Integrator):
    """Plain NVE velocity Verlet (the ``NVE`` LAMMPS command).

    Assumes constant atom count, volume and energy with periodic
    boundaries — the setting of LJ, Chain, EAM and Chute.  For granular
    systems the angular velocities are advanced with the sphere inertia
    ``I = 2/5 m R^2``.
    """

    def initial_integrate(self, system: AtomSystem, dt: float) -> None:
        inv_m = 1.0 / system.masses[:, None]
        system.velocities += 0.5 * dt * system.forces * inv_m
        system.positions += dt * system.velocities
        if system.omega is not None and system.torques is not None:
            inertia = 0.4 * system.masses * system.radii**2
            system.omega += 0.5 * dt * system.torques / inertia[:, None]

    def final_integrate(self, system: AtomSystem, dt: float) -> None:
        inv_m = 1.0 / system.masses[:, None]
        system.velocities += 0.5 * dt * system.forces * inv_m
        if system.omega is not None and system.torques is not None:
            inertia = 0.4 * system.masses * system.radii**2
            system.omega += 0.5 * dt * system.torques / inertia[:, None]


class NoseHooverNVT(VelocityVerletNVE):
    """Single-chain Nose-Hoover thermostat around velocity Verlet.

    Parameters
    ----------
    temperature:
        Target temperature (kB = 1).
    t_damp:
        Thermostat relaxation time (LAMMPS ``Tdamp``); ~100 timesteps is
        the usual choice.
    n_constraints:
        Degrees of freedom removed by constraints (SHAKE), so the
        thermostat sees the correct temperature.
    """

    def __init__(
        self, temperature: float, t_damp: float, *, n_constraints: int = 0
    ) -> None:
        if temperature <= 0 or t_damp <= 0:
            raise ValueError("temperature and t_damp must be positive")
        self.temperature = float(temperature)
        self.t_damp = float(t_damp)
        self.n_constraints = int(n_constraints)
        self.zeta = 0.0  # thermostat friction variable

    def _thermostat_half(self, system: AtomSystem, dt: float) -> None:
        t_now = system.temperature(self.n_constraints)
        self.zeta += (
            0.5 * dt / (self.t_damp**2) * (t_now / self.temperature - 1.0)
        )
        system.velocities *= math.exp(-0.5 * dt * self.zeta)

    def initial_integrate(self, system: AtomSystem, dt: float) -> None:
        self._thermostat_half(system, dt)
        super().initial_integrate(system, dt)

    def final_integrate(self, system: AtomSystem, dt: float) -> None:
        super().final_integrate(system, dt)
        self._thermostat_half(system, dt)

    def state_dict(self) -> dict:
        return {"zeta": self.zeta}

    def load_state_dict(self, state: dict) -> None:
        self.zeta = float(state["zeta"])


class NoseHooverNPT(NoseHooverNVT):
    """Isotropic Nose-Hoover NPT (the Rhodopsin ``NPT`` command).

    Adds a barostat variable ``eta`` that dilates the box and particle
    positions toward the target pressure.  The virial needed for the
    instantaneous pressure is supplied each step by the simulation loop
    through :meth:`set_virial`.
    """

    def __init__(
        self,
        temperature: float,
        t_damp: float,
        pressure: float,
        p_damp: float,
        *,
        n_constraints: int = 0,
    ) -> None:
        super().__init__(temperature, t_damp, n_constraints=n_constraints)
        if p_damp <= 0:
            raise ValueError("p_damp must be positive")
        self.pressure = float(pressure)
        self.p_damp = float(p_damp)
        self.eta = 0.0  # barostat strain rate
        self._virial = 0.0

    def set_virial(self, virial: float) -> None:
        """Record the current scalar pair virial (sum r . f over pairs)."""
        self._virial = float(virial)

    def current_pressure(self, system: AtomSystem) -> float:
        """Instantaneous pressure ``(2 KE + W) / (3 V)``."""
        return (2.0 * system.kinetic_energy() + self._virial) / (
            3.0 * system.box.volume
        )

    def _barostat_half(self, system: AtomSystem, dt: float) -> None:
        p_now = self.current_pressure(system)
        # Strain-rate update (units absorbed into p_damp).
        self.eta += 0.5 * dt / (self.p_damp**2) * (p_now - self.pressure)
        # Cap the strain rate so one half-step never dilates the box by
        # more than 0.1% — keeps badly equilibrated starts recoverable.
        eta_max = 2e-3 / dt
        self.eta = min(max(self.eta, -eta_max), eta_max)
        scale = math.exp(0.5 * dt * self.eta)
        system.box.scale(scale)
        system.positions *= scale

    def initial_integrate(self, system: AtomSystem, dt: float) -> None:
        self._barostat_half(system, dt)
        super().initial_integrate(system, dt)

    def final_integrate(self, system: AtomSystem, dt: float) -> None:
        super().final_integrate(system, dt)
        self._barostat_half(system, dt)

    def state_dict(self) -> dict:
        # ``_virial`` feeds the barostat half-step that runs *before*
        # the next force evaluation, so a restart must carry it over.
        return {"zeta": self.zeta, "eta": self.eta, "virial": self._virial}

    def load_state_dict(self, state: dict) -> None:
        self.zeta = float(state["zeta"])
        self.eta = float(state["eta"])
        self._virial = float(state["virial"])
