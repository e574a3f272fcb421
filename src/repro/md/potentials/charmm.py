"""CHARMM-style pair potential: switched LJ plus long-range Coulomb.

This is the pair part of the Rhodopsin benchmark (``pair_style
lj/charmm/coul/long`` in LAMMPS): a 12-6 Lennard-Jones term smoothly
switched to zero between an inner and outer cutoff (Table 2's
``8.0 - 10.0 Angstrom``), and the *short-range* (real-space) part of the
Ewald/PPPM-split Coulomb interaction, ``q_i q_j erfc(alpha r) / r``.
The complementary long-range piece lives in :mod:`repro.md.kspace`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.md.potentials.base import AnalyticPairPotential
from repro.md.potentials.mixing import build_mixed_tables

__all__ = ["CharmmCoulLong", "charmm_switch", "ewald_screening", "switch_constants"]

# A python float (not a np.float64 scalar) so NEP-50 promotion keeps
# float32 pair math in float32.
_TWO_OVER_SQRT_PI = float(2.0 / np.sqrt(np.pi))


def switch_constants(r_inner: float, r_outer: float) -> tuple[float, float, float]:
    """``(ri^2, ro^2, (ro^2 - ri^2)^3)`` of :func:`charmm_switch`, as the
    python floats it forms them (the fused kernel is handed these)."""
    ri2 = r_inner * r_inner
    ro2 = r_outer * r_outer
    return ri2, ro2, (ro2 - ri2) ** 3


def ewald_screening(alpha: float, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(erfc(alpha r), exp(-(alpha r)^2))``: the real-space Ewald
    factors of the Coulomb term, by scipy's ``erfc`` and numpy's ``exp``
    — the two calls the pair body and the fused route both make here."""
    from scipy.special import erfc

    ar = alpha * r
    return erfc(ar), np.exp(-ar * ar)


def charmm_switch(
    r2: np.ndarray, r_inner: float, r_outer: float
) -> tuple[np.ndarray, np.ndarray]:
    """CHARMM energy switching function ``S`` and ``dS/dr``.

    ``S = 1`` below ``r_inner``, 0 above ``r_outer``; in between::

        S = (ro^2 - r^2)^2 (ro^2 + 2 r^2 - 3 ri^2) / (ro^2 - ri^2)^3
        dS/dr = 12 r (ro^2 - r^2)(ri^2 - r^2) / (ro^2 - ri^2)^3
    """
    ri2, ro2, denom = switch_constants(r_inner, r_outer)
    r2 = np.asarray(r2)
    if r2.dtype not in (np.float32, np.float64):
        r2 = r2.astype(np.float64)
    d2 = ro2 - r2
    s = d2 * d2 * (ro2 + 2.0 * r2 - 3.0 * ri2) / denom
    r = np.sqrt(r2)
    ds = 12.0 * r * d2 * (ri2 - r2) / denom
    below = r2 <= ri2
    above = r2 >= ro2
    s = np.where(below, 1.0, np.where(above, 0.0, s))
    ds = np.where(below | above, 0.0, ds)
    return s, ds


class CharmmCoulLong(AnalyticPairPotential):
    """Switched LJ + real-space Ewald Coulomb, with arithmetic mixing.

    The Coulomb term reads per-pair charges, so this is the one pair
    style that opts into the charge gathers (``needs_charges``).

    Parameters
    ----------
    epsilon, sigma:
        Per-type LJ coefficients, mixed with ``pair_modify mix
        arithmetic`` (the Rhodopsin setting from Table 2).
    lj_inner, cutoff:
        Switching region bounds for the LJ term.
    coul_cutoff:
        Real-space Coulomb cutoff; defaults to the LJ outer cutoff.
    alpha:
        Ewald splitting parameter, ``>= 0``.  ``0`` degenerates to a
        plain cut Coulomb (no k-space complement), useful for isolated
        tests.
    coulomb_constant:
        ``q q / r`` prefactor; 1 in reduced units.

    A negative or non-finite ``lj_inner`` or ``alpha``, or a
    non-positive or non-finite ``coul_cutoff``, is a ``ValueError``
    naming the parameter: each would silently change the physics.
    """

    needs_charges = True
    closed_form = "lj/charmm/coul/long"

    def __init__(
        self,
        epsilon: float | np.ndarray = 1.0,
        sigma: float | np.ndarray = 1.0,
        *,
        lj_inner: float = 8.0,
        cutoff: float = 10.0,
        coul_cutoff: float | None = None,
        alpha: float = 0.0,
        coulomb_constant: float = 1.0,
        mix_style: str = "arithmetic",
    ) -> None:
        coul_cutoff = cutoff if coul_cutoff is None else coul_cutoff
        for name, value, rule in (
            ("lj_inner", lj_inner, ">= 0"),
            ("coul_cutoff", coul_cutoff, "> 0"),
            ("alpha", alpha, ">= 0"),
        ):
            value = float(value)
            in_range = value > 0.0 if rule == "> 0" else value >= 0.0
            if not (in_range and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and {rule}, got {value!r}")
        if lj_inner >= cutoff:
            raise ValueError("lj_inner must be smaller than the outer cutoff")
        eps = np.atleast_1d(np.asarray(epsilon, dtype=float))
        sig = np.atleast_1d(np.asarray(sigma, dtype=float))
        self.eps_table, self.sigma_table = build_mixed_tables(eps, sig, mix_style)
        self.lj_inner = float(lj_inner)
        self.cutoff = float(cutoff)
        self.coul_cutoff = float(coul_cutoff)
        if self.coul_cutoff > self.cutoff:
            raise ValueError(
                "coul_cutoff beyond the LJ cutoff would need a larger neighbor list"
            )
        self.alpha = float(alpha)
        self.coulomb_constant = float(coulomb_constant)
        self.needs_types = self.eps_table.size > 1

    def pair_terms(self, r, r2, type_i, type_j, q_i, q_j):
        screening = ewald_screening(self.alpha, r) if self.alpha > 0.0 else None
        return self.screened_terms(r, r2, type_i, type_j, q_i, q_j, screening)

    def screened_constants(self) -> np.ndarray:
        """The python floats :meth:`screened_terms` forms from this
        potential's attributes, by the same expressions, in the order
        the compiled ``charmm_terms`` kernel reads them (``CH_*`` in the
        C source)."""
        ri2, ro2, denom = switch_constants(self.lj_inner, self.cutoff)
        return np.array([
            ri2, ro2, denom, 3.0 * ri2, self.coul_cutoff, self.coulomb_constant,
            self.alpha, _TWO_OVER_SQRT_PI * self.alpha,
        ])

    def screened_terms(self, r, r2, type_i, type_j, q_i, q_j, screening):
        """:meth:`pair_terms` given its Ewald factors: ``screening`` is
        :func:`ewald_screening` of ``(alpha, r)``, or ``None`` for the
        plain cut Coulomb of ``alpha == 0``.  Arithmetic only — the part
        the compiled backend's ``charmm_terms`` kernel replays bitwise."""
        if self.needs_types:
            # Cast the tiny mixing tables so the gathers (and the whole
            # formula) stay in the compute dtype.
            eps = self.eps_table.astype(r2.dtype, copy=False)[type_i, type_j]
            sigma = self.sigma_table.astype(r2.dtype, copy=False)[type_i, type_j]
        else:
            eps = float(self.eps_table[0, 0])
            sigma = float(self.sigma_table[0, 0])
        inv_r2 = 1.0 / r2
        sr2 = sigma * sigma * inv_r2
        sr6 = sr2 * sr2 * sr2
        sr12 = sr6 * sr6
        e_lj = 4.0 * eps * (sr12 - sr6)
        f_lj_over_r = 24.0 * eps * (2.0 * sr12 - sr6) * inv_r2

        switch, dswitch = charmm_switch(r2, self.lj_inner, self.cutoff)
        energy = switch * e_lj
        # F = -d(S E)/dr => f_over_r = S f_lj/r - S' E / r
        f_over_r = switch * f_lj_over_r - dswitch * e_lj / r

        qq = self.coulomb_constant * q_i * q_j
        in_coul = r < self.coul_cutoff
        if screening is not None:
            erfc_ar, gauss = screening
            e_coul = qq * erfc_ar / r
            f_coul_over_r = qq * (
                erfc_ar / (r2 * r) + _TWO_OVER_SQRT_PI * self.alpha * gauss * inv_r2
            )
        else:
            e_coul = qq / r
            f_coul_over_r = qq / (r2 * r)
        energy = energy + np.where(in_coul, e_coul, 0.0)
        f_over_r = f_over_r + np.where(in_coul, f_coul_over_r, 0.0)
        return energy, f_over_r
