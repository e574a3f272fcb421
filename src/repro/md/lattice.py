"""Initial-configuration builders for the five benchmark systems.

Each builder mirrors the corresponding LAMMPS ``bench`` input deck:

* :func:`lj_melt_system` — fcc lattice at reduced density 0.8442, melted
  by seeding velocities (the ``in.lj`` deck);
* :func:`polymer_melt_system` — random-walk 100-mer bead-spring chains
  with a soft push-off (the ``in.chain`` deck, Kremer & Grest);
* :func:`eam_solid_system` — copper fcc solid (the ``in.eam`` deck);
* :func:`chute_system` — packed granular bed on an inclined plane with a
  bottom wall (the ``in.chute`` deck);
* :func:`rhodopsin_proxy_system` — a solvated-biomolecule proxy: rigid
  three-site water (SHAKE-constrained) plus an optional charged solute
  chain, with CHARMM-style pair interactions and PPPM electrostatics
  (substituting for the all-atom rhodopsin/lipid system, see DESIGN.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.md.atoms import AtomSystem, Topology
from repro.md.box import Box
from repro.md.neighbor import NeighborList
from repro.md.potentials.lj import WCA_CUTOFF, LennardJonesCut
from repro.md.potentials.soft import SoftRepulsion

__all__ = [
    "fcc_positions",
    "sc_positions",
    "diamond_positions",
    "lj_melt_system",
    "polymer_melt_system",
    "eam_solid_system",
    "tersoff_silicon_system",
    "chute_system",
    "rhodopsin_proxy_system",
    "RhodopsinProxy",
    "soft_pushoff",
    "build_exclusions",
]


# ---------------------------------------------------------------------------
# Crystal lattices
# ---------------------------------------------------------------------------
def fcc_positions(n_cells: int, a: float) -> tuple[np.ndarray, Box]:
    """``n_cells^3`` fcc unit cells of lattice constant ``a``."""
    if n_cells < 1:
        raise ValueError("n_cells must be >= 1")
    basis = np.array(
        [[0.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]]
    )
    cells = np.arange(n_cells)
    grid = np.array(np.meshgrid(cells, cells, cells, indexing="ij")).reshape(3, -1).T
    positions = (grid[:, None, :] + basis[None, :, :]).reshape(-1, 3) * a
    box = Box(np.full(3, n_cells * a))
    return positions, box


def sc_positions(n_cells: int, a: float) -> tuple[np.ndarray, Box]:
    """Simple-cubic lattice of ``n_cells^3`` sites with spacing ``a``."""
    if n_cells < 1:
        raise ValueError("n_cells must be >= 1")
    cells = np.arange(n_cells)
    grid = np.array(np.meshgrid(cells, cells, cells, indexing="ij")).reshape(3, -1).T
    box = Box(np.full(3, n_cells * a))
    return (grid + 0.5) * a, box


def diamond_positions(n_cells: int, a: float) -> tuple[np.ndarray, Box]:
    """``n_cells^3`` diamond-cubic cells (8 atoms each) of constant ``a``.

    The diamond structure is two interpenetrating fcc lattices offset by
    a quarter of the body diagonal — silicon's crystal structure, the
    geometry the Tersoff benchmark starts from.
    """
    if n_cells < 1:
        raise ValueError("n_cells must be >= 1")
    fcc = np.array(
        [[0.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]]
    )
    basis = np.concatenate([fcc, fcc + 0.25])
    cells = np.arange(n_cells)
    grid = np.array(np.meshgrid(cells, cells, cells, indexing="ij")).reshape(3, -1).T
    positions = (grid[:, None, :] + basis[None, :, :]).reshape(-1, 3) * a
    box = Box(np.full(3, n_cells * a))
    return positions, box


def _cells_for_atoms(n_atoms: int, atoms_per_cell: int) -> int:
    """Cube-root cell count giving at least ``n_atoms`` lattice sites."""
    return max(1, math.ceil((n_atoms / atoms_per_cell) ** (1.0 / 3.0)))


# ---------------------------------------------------------------------------
# LJ melt (the "lj" benchmark)
# ---------------------------------------------------------------------------
def lj_melt_system(
    n_atoms: int = 500,
    *,
    density: float = 0.8442,
    temperature: float = 1.44,
    seed: int = 12345,
) -> AtomSystem:
    """3-D Lennard-Jones melt in reduced units (``in.lj``)."""
    n_cells = _cells_for_atoms(n_atoms, 4)
    a = (4.0 / density) ** (1.0 / 3.0)
    positions, box = fcc_positions(n_cells, a)
    system = AtomSystem(positions, box)
    system.seed_velocities(temperature, np.random.default_rng(seed))
    return system


# ---------------------------------------------------------------------------
# Bead-spring polymer melt (the "chain" benchmark)
# ---------------------------------------------------------------------------
#: Finishing steps :func:`soft_pushoff` allows itself; 32 000 beads
#: need 7.
_PUSHOFF_FINISH_STEPS = 200


def _pushoff_is_safe(
    system: AtomSystem,
    neighbor: NeighborList,
    min_separation: float,
    max_bond: float,
) -> bool:
    """No pair closer than ``min_separation``, no bond longer than
    ``max_bond``."""
    contacts = neighbor.current_pairs(system)[3]
    if len(contacts) and contacts.min() < min_separation:
        return False
    bonds = system.topology.bonds
    if len(bonds) == 0:
        return True
    lengths = system.box.distance(
        system.positions[bonds[:, 0]], system.positions[bonds[:, 1]]
    )
    return bool(lengths.max() <= max_bond)


def soft_pushoff(
    system: AtomSystem,
    *,
    steps: int = 200,
    cutoff: float = 2.0 ** (1.0 / 6.0),
    max_prefactor: float = 30.0,
    dt: float = 0.002,
    bond_length: float = 0.97,
) -> None:
    """Remove overlaps with a ramped soft potential plus stiff bond springs.

    The standard melt-preparation trick: random-walk chains overlap, and
    the LJ/FENE potentials would explode; pushing with the bounded soft
    potential while ramping its prefactor inflates the configuration
    into a usable melt.  Velocities are zeroed afterwards.

    The ramp's forces are bounded (soft core) or weak (``k = 50``
    springs), so it leaves tails: about one bond in a thousand ends
    beyond ``1.4`` and the closest contact shrinks as more pairs sample
    it.  Whether the longest bond passes FENE's ``R0 = 1.5`` or a
    contact is tight enough for the LJ core to fling an atom through
    its bonds within a few steps is then a matter of system size and
    seed (it happened at 1 500 and from 3 000 beads up).  So the result
    is checked — longest bond ``<= 1.5 bond_length``, closest pair
    ``>= 0.8 sigma`` — and, only where it fails, relaxed further with
    the real WCA core and a stiffer spring under a small displacement
    cap (LAMMPS's ``nve/limit`` recipe) until it holds.
    """
    from repro.md.bonded import HarmonicBond  # local import to avoid a cycle

    neighbor = NeighborList(cutoff, 0.3)
    neighbor.build(system)
    spring = HarmonicBond(k=50.0, r0=bond_length)
    for step in range(steps):
        ramp = max_prefactor * (step + 1) / steps
        potential = SoftRepulsion(ramp, cutoff)
        system.forces[:] = 0.0
        neighbor.ensure(system)
        potential.compute(system, neighbor)
        if system.topology.n_bonds:
            spring.compute(system)
        # Overdamped relaxation: displacement capped for stability.
        move = dt * system.forces
        np.clip(move, -0.1, 0.1, out=move)
        system.positions += move
        system.wrap()

    sigma = cutoff / WCA_CUTOFF
    core = LennardJonesCut(1.0, sigma, cutoff)
    # 3x the ramp's spring at the default dt, inside explicit Euler's
    # stability bound for a bond whose two ends both move (4 k dt < 2).
    stiff = HarmonicBond(k=0.3 / dt, r0=bond_length)
    for _ in range(_PUSHOFF_FINISH_STEPS):
        neighbor.ensure(system)
        if _pushoff_is_safe(system, neighbor, 0.8 * sigma, 1.5 * bond_length):
            break
        system.forces[:] = 0.0
        core.compute(system, neighbor)
        if system.topology.n_bonds:
            stiff.compute(system)
        move = dt * system.forces
        np.clip(move, -0.02, 0.02, out=move)
        system.positions += move
        system.wrap()
    else:
        raise RuntimeError(
            "soft_pushoff: bonds or contacts still outside the safe range "
            f"after {_PUSHOFF_FINISH_STEPS} finishing steps"
        )
    system.velocities[:] = 0.0


def polymer_melt_system(
    n_chains: int = 8,
    chain_length: int = 25,
    *,
    density: float = 0.8442,
    temperature: float = 1.0,
    bond_length: float = 0.97,
    seed: int = 4321,
    pushoff_steps: int = 200,
) -> AtomSystem:
    """Bead-spring polymer melt of ``n_chains`` x ``chain_length`` beads.

    The paper's Chain benchmark uses 100-mer chains; tests use shorter
    chains for speed, the suite uses the full length.  Chains are grown
    as fixed-bond-length random walks and de-overlapped by
    :func:`soft_pushoff`.
    """
    if n_chains < 1 or chain_length < 2:
        raise ValueError("need at least one chain of two beads")
    rng = np.random.default_rng(seed)
    n_atoms = n_chains * chain_length
    side = (n_atoms / density) ** (1.0 / 3.0)
    box = Box(np.full(3, side))

    positions = np.empty((n_atoms, 3))
    bonds = []
    molecule_ids = np.empty(n_atoms, dtype=np.int64)
    idx = 0
    for chain in range(n_chains):
        positions[idx] = rng.uniform(0.0, side, size=3)
        molecule_ids[idx] = chain
        for bead in range(1, chain_length):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            positions[idx + bead] = positions[idx + bead - 1] + bond_length * direction
            bonds.append((idx + bead - 1, idx + bead))
            molecule_ids[idx + bead] = chain
        idx += chain_length

    topology = Topology(bonds=np.array(bonds, dtype=np.int64))
    system = AtomSystem(
        positions, box, topology=topology, molecule_ids=molecule_ids
    )
    soft_pushoff(
        system, steps=pushoff_steps, bond_length=bond_length
    )
    system.seed_velocities(temperature, rng)
    return system


# ---------------------------------------------------------------------------
# EAM copper solid (the "eam" benchmark)
# ---------------------------------------------------------------------------
def eam_solid_system(
    n_atoms: int = 500,
    *,
    lattice_constant: float = 3.615,
    temperature: float = 0.05,
    seed: int = 777,
) -> AtomSystem:
    """Copper fcc solid (``in.eam``); lengths in Angstrom, energy in eV."""
    n_cells = _cells_for_atoms(n_atoms, 4)
    positions, box = fcc_positions(n_cells, lattice_constant)
    system = AtomSystem(positions, box, masses=63.546)
    system.seed_velocities(temperature, np.random.default_rng(seed))
    return system


# ---------------------------------------------------------------------------
# Tersoff silicon solid (the "tersoff" benchmark)
# ---------------------------------------------------------------------------
def tersoff_silicon_system(
    n_atoms: int = 512,
    *,
    lattice_constant: float = 5.431,
    temperature: float = 0.04,
    seed: int = 1988,
) -> AtomSystem:
    """Silicon diamond-cubic solid; lengths in Angstrom, energy in eV.

    ``temperature`` follows the engine's reduced convention used by
    :func:`eam_solid_system` (a small thermal jitter on a cold crystal);
    the seed defaults to the Tersoff-paper year for greppability.
    """
    n_cells = _cells_for_atoms(n_atoms, 8)
    positions, box = diamond_positions(n_cells, lattice_constant)
    system = AtomSystem(positions, box, masses=28.0855)
    system.seed_velocities(temperature, np.random.default_rng(seed))
    return system


# ---------------------------------------------------------------------------
# Granular chute flow (the "chute" benchmark)
# ---------------------------------------------------------------------------
def chute_system(
    n_x: int = 6,
    n_y: int = 6,
    n_layers: int = 4,
    *,
    diameter: float = 1.0,
    seed: int = 999,
) -> AtomSystem:
    """Packed granular bed above a bottom wall, periodic in x and y.

    The z dimension is non-periodic (the chute floor); gravity tilted by
    the chute angle is applied as a fix by the suite builder.
    """
    if min(n_x, n_y, n_layers) < 1:
        raise ValueError("all grid dimensions must be >= 1")
    rng = np.random.default_rng(seed)
    # A settled bed is slightly compressed: neighbours overlap by ~1% so
    # contacts (and their friction histories) exist from step one.
    spacing = 0.99 * diameter
    height = (n_layers + 6) * spacing  # headroom above the packed bed
    box = Box(
        np.array([n_x * spacing, n_y * spacing, height]),
        periodic=np.array([True, True, False]),
    )
    ix, iy, iz = np.meshgrid(
        np.arange(n_x), np.arange(n_y), np.arange(n_layers), indexing="ij"
    )
    grid = np.stack([ix, iy, iz], axis=-1).reshape(-1, 3).astype(float)
    positions = (grid + 0.5) * spacing
    # Small jitter so the packing is not perfectly degenerate.
    positions[:, :2] += rng.uniform(-0.01, 0.01, size=(len(positions), 2)) * diameter

    system = AtomSystem(
        positions,
        box,
        radii=np.full(len(positions), 0.5 * diameter),
        masses=1.0,
    )
    system.velocities = 0.01 * rng.normal(size=system.velocities.shape)
    return system


# ---------------------------------------------------------------------------
# Solvated-biomolecule proxy (the "rhodo" benchmark)
# ---------------------------------------------------------------------------
#: SPC/E-like geometry and charges, with the Coulomb constant folded into
#: the charges so the engine can keep ``C = 1`` (documented in DESIGN.md).
_WATER_OH = 1.0
_WATER_HH = 1.633  # 109.47 degree H-O-H as an H-H distance constraint
_COULOMB_FOLD = math.sqrt(332.0637)  # kcal mol^-1 Angstrom e^-2
_Q_OXYGEN = -0.8476 * _COULOMB_FOLD
_Q_HYDROGEN = 0.4238 * _COULOMB_FOLD


@dataclass
class RhodopsinProxy:
    """A built rhodopsin-proxy system plus its constraint/exclusion data."""

    system: AtomSystem
    shake_pairs: np.ndarray
    shake_distances: np.ndarray
    exclusions: np.ndarray
    #: Per-type LJ tables (type 0 = O-like, 1 = H-like, 2 = solute bead).
    epsilon: np.ndarray
    sigma: np.ndarray
    #: Solute torsion quadruples (empty without a >= 4-bead solute).
    dihedrals: np.ndarray = None  # type: ignore[assignment]


def build_exclusions(topology: Topology) -> np.ndarray:
    """1-2 (bond) and 1-3 (angle end) non-bonded exclusion pairs."""
    pairs = [topology.bonds]
    if topology.n_angles:
        pairs.append(topology.angles[:, [0, 2]])
    if not pairs:
        return np.empty((0, 2), dtype=np.int64)
    stacked = np.concatenate(pairs, axis=0)
    lo = np.minimum(stacked[:, 0], stacked[:, 1])
    hi = np.maximum(stacked[:, 0], stacked[:, 1])
    return np.unique(np.stack([lo, hi], axis=1), axis=0)


def rhodopsin_proxy_system(
    n_molecules: int = 64,
    *,
    n_solute_beads: int = 0,
    spacing: float = 3.2,
    temperature: float = 0.6,
    seed: int = 2022,
) -> RhodopsinProxy:
    """Rigid three-site water box with an optional charged solute chain.

    Substitutes for the all-atom solvated rhodopsin system: same force
    field ingredients (CHARMM-style switched LJ + long-range Coulomb,
    SHAKE-rigid waters, harmonic solute bonds/angles) at laptop scale.
    ``temperature`` is in kcal/mol (0.6 is roughly 300 K).
    """
    if n_molecules < 1:
        raise ValueError("need at least one water molecule")
    rng = np.random.default_rng(seed)
    n_cells = _cells_for_atoms(n_molecules + n_solute_beads, 1)
    sites, box = sc_positions(n_cells, spacing)
    rng.shuffle(sites)

    # The solute chain runs along z through the box centre; water sites
    # too close to a bead are discarded so nothing overlaps at t = 0.
    solute_positions: list[np.ndarray] = []
    if n_solute_beads > 0:
        if 1.5 * n_solute_beads > box.lengths[2] - 1.5:
            raise ValueError(
                "solute chain does not fit in the box without wrapping onto "
                "itself; reduce n_solute_beads or increase n_molecules"
            )
        start = box.lengths / 2.0 - np.array([0.0, 0.0, 0.75 * n_solute_beads])
        solute_positions = [
            box.wrap(start + np.array([0.0, 0.0, bead * 1.5]))
            for bead in range(n_solute_beads)
        ]
        solute_arr = np.array(solute_positions)
        keep = np.ones(len(sites), dtype=bool)
        for bead_pos in solute_arr:
            keep &= box.distance(sites, bead_pos[None, :]) > 0.9 * spacing
        sites = sites[keep]
    if len(sites) < n_molecules:
        raise ValueError(
            "not enough lattice sites for the requested waters after "
            "carving out the solute; increase spacing or reduce beads"
        )

    positions: list[np.ndarray] = []
    types: list[int] = []
    charges: list[float] = []
    masses: list[float] = []
    molecule_ids: list[int] = []
    bonds: list[tuple[int, int]] = []
    angles: list[tuple[int, int, int]] = []
    dihedrals: list[tuple[int, int, int, int]] = []
    shake_pairs: list[tuple[int, int]] = []
    shake_distances: list[float] = []

    half_hh = 0.5 * _WATER_HH
    h_drop = math.sqrt(max(_WATER_OH**2 - half_hh**2, 1e-12))
    for mol in range(n_molecules):
        center = sites[mol]
        # Random rigid orientation from two orthonormal vectors.
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        helper = rng.normal(size=3)
        helper -= axis * np.dot(axis, helper)
        helper /= np.linalg.norm(helper)
        o_pos = center
        h1 = center + h_drop * axis + half_hh * helper
        h2 = center + h_drop * axis - half_hh * helper
        base = len(positions)
        positions.extend([o_pos, h1, h2])
        types.extend([0, 1, 1])
        charges.extend([_Q_OXYGEN, _Q_HYDROGEN, _Q_HYDROGEN])
        masses.extend([15.9994, 1.008, 1.008])
        molecule_ids.extend([mol, mol, mol])
        bonds.extend([(base, base + 1), (base, base + 2)])
        angles.append((base + 1, base, base + 2))
        shake_pairs.extend(
            [(base, base + 1), (base, base + 2), (base + 1, base + 2)]
        )
        shake_distances.extend([_WATER_OH, _WATER_OH, _WATER_HH])

    if n_solute_beads > 0:
        prev = None
        mol_id = n_molecules
        for bead, pos in enumerate(solute_positions):
            base = len(positions)
            positions.append(pos)
            types.append(2)
            charges.append((_Q_HYDROGEN if bead % 2 == 0 else -_Q_HYDROGEN))
            masses.append(12.011)
            molecule_ids.append(mol_id)
            if prev is not None:
                bonds.append((prev, base))
                if bead >= 2:
                    angles.append((prev - 1, prev, base))
                if bead >= 3:
                    dihedrals.append((prev - 2, prev - 1, prev, base))
            prev = base
        # Neutralize any odd-length solute with a counter charge on the
        # last bead so k-space stays valid.
        total = sum(charges)
        charges[-1] -= total

    topology = Topology(
        bonds=np.array(bonds, dtype=np.int64),
        angles=np.array(angles, dtype=np.int64),
    )
    system = AtomSystem(
        np.array(positions),
        box,
        masses=np.array(masses),
        types=np.array(types, dtype=np.int64),
        charges=np.array(charges),
        topology=topology,
        molecule_ids=np.array(molecule_ids, dtype=np.int64),
    )
    system.seed_velocities(temperature, rng)

    # SPC/E-like LJ on oxygen; tiny placeholder on H so mixing is defined;
    # mid-size bead for the solute.
    epsilon = np.array([0.1553, 0.0, 0.12])
    sigma = np.array([3.166, 1.0, 3.5])
    return RhodopsinProxy(
        system=system,
        shake_pairs=np.array(shake_pairs, dtype=np.int64),
        shake_distances=np.array(shake_distances),
        exclusions=build_exclusions(topology),
        epsilon=epsilon,
        sigma=sigma,
        dihedrals=np.array(dihedrals, dtype=np.int64).reshape(-1, 4),
    )
