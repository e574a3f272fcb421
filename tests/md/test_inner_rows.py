"""Inner rows: the stored pairs within ``cutoff + b`` at the build.

The fused EAM and Tersoff passes read them in place of the stored rows
while ``2 max_disp + |dL| <= b`` holds on the current positions, and the
stored rows otherwise.  Either way a pass keeps the stored list's
survivors in its order, so every result is bitwise the one the stored
rows give: the property below drives two lists over one trajectory, one
whose backend sweeps the inner rows and one whose backend declines, and
compares forces, energy and virial bit for bit after every move.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.md.atoms import AtomSystem
from repro.md.box import Box
from repro.md.kernels import CompiledBackend, KernelBackend
from repro.md.kernels.compiled import compiled_available
from repro.md.neighbor import NeighborList
from repro.md.potentials.eam import EAMAlloy
from repro.md.potentials.tersoff import Tersoff

pytestmark = pytest.mark.skipif(
    not compiled_available(), reason="no compiled provider (no working C compiler)"
)

#: ``(potential, skin, box edge range)`` per kind: the edge keeps the
#: box above two list cutoffs after the scenario's box change.
KINDS = {"eam": (EAMAlloy, 1.0, (13.0, 15.0)), "tersoff": (Tersoff, 1.0, (9.0, 11.0))}


class _Sweeping(CompiledBackend):
    """The compiled backend with its fused pass required to engage."""

    def pair_forces(self, potential, rows):
        fused = super().pair_forces(potential, rows)
        assert fused is not None, "the fused pass declined"
        return fused


class _Declining(_Sweeping):
    """The same, with the inner-row sweep declining: every pass reads
    the stored rows."""

    prune_rows = KernelBackend.prune_rows


class _Twin:
    """One system and list per backend, moved in lockstep."""

    def __init__(self, kind, positions, lengths, periodic):
        make, skin, _ = KINDS[kind]
        self.sides = []
        for backend in (_Sweeping(), _Declining()):
            potential = make()
            potential.backend = backend
            system = AtomSystem(positions.copy(), Box(lengths, periodic=periodic))
            nlist = NeighborList(potential.cutoff, skin, full=potential.needs_full_list)
            nlist.kernels = backend
            nlist.build(system)
            self.sides.append((system, nlist, potential))

    @property
    def lists(self):
        return [nlist for _, nlist, _ in self.sides]

    def move(self, displacement=None, box_factor=None):
        for system, _, _ in self.sides:
            if box_factor is not None:
                system.box.scale(box_factor)
            if displacement is not None:
                system.positions += displacement

    def step(self, *, ensure=True):
        """Each side's ``(rebuilt, result, forces)``, the same bitwise."""
        out = []
        for system, nlist, potential in self.sides:
            rebuilt = nlist.ensure(system) if ensure else False
            system.forces[...] = 0.0
            result = potential.compute(system, nlist)
            out.append((rebuilt, result, system.forces.copy()))
        (rebuilt, swept, f_swept), (rebuilt_too, stored, f_stored) = out
        assert rebuilt == rebuilt_too
        assert swept.interactions == stored.interactions
        assert _bits(swept.energy) == _bits(stored.energy)
        assert _bits(swept.virial) == _bits(stored.virial)
        assert _bits(f_swept) == _bits(f_stored)
        return rebuilt, swept


def _bits(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


def _gas(rng, n, lengths, x_room):
    """``n`` atoms uniform in the box, their x below ``x_room``."""
    positions = rng.uniform(0.0, 1.0, (n, 3)) * lengths
    positions[:, 0] *= x_room / lengths[0]
    return positions


def _separation(system, a, b) -> float:
    d = system.box.minimum_image(system.positions[a] - system.positions[b])
    return float(np.linalg.norm(d))


def _in_rows(rows, a, b) -> bool:
    """Whether the pair ``(a, b)`` is in CSR ``rows``, either way round."""
    offsets, partners = rows
    return any(
        y in partners[offsets[x] : offsets[x + 1]] for x, y in ((a, b), (b, a))
    )


@st.composite
def _scenarios(draw):
    kind = draw(st.sampled_from(sorted(KINDS)))
    seed = draw(st.integers(0, 2**32 - 1))
    edge = draw(st.floats(*KINDS[kind][2]))
    periodic = (True, draw(st.booleans()), draw(st.booleans()))
    jitter = draw(st.floats(0.05, 0.4))
    return kind, seed, edge, periodic, jitter


@given(scenario=_scenarios())
@settings(max_examples=40, deadline=None)
def test_pruned_and_stored_rows_agree_bitwise_on_every_step(scenario):
    """Setup, a first reuse (the sweep), a pair entering the cutoff from
    the ``(rc, rc + b]`` band, a box change that lapses the rows through
    its ``|dL|`` term alone, a rebuild and a second sweep: bitwise on
    every step."""
    kind, seed, edge, periodic, jitter = scenario
    rng = np.random.default_rng(seed)
    make, skin, _ = KINDS[kind]
    rc, b = make().cutoff, 0.5 * skin
    lengths = np.array([edge, edge + 0.3, edge + 0.6])
    shrink = 1.3 * b  # along x, moving no atom
    positions = _gas(rng, 40, lengths, lengths[0] - shrink - 0.2)
    middle = 0.5 * lengths
    # Atoms 0 and 1: rc + 0.4 b apart, inside the inner band.
    positions[0] = middle - [0.5 * (rc + 0.4 * b), 0.0, 0.0]
    positions[1] = middle + [0.5 * (rc + 0.4 * b), 0.0, 0.0]
    # Atoms 2 and 3: rc + 1.2 b apart through the x boundary, beyond the
    # inner band but stored; the shrink brings them to rc - 0.1 b.
    positions[2] = [0.3, middle[1] + 2.0, middle[2] + 2.0]
    positions[3] = positions[2] + [lengths[0] - (rc + 1.2 * b), 0.0, 0.0]
    twin = _Twin(kind, positions, lengths, periodic)
    swept_list, declined_list = twin.lists

    assert twin.step(ensure=False)[0] is False  # the build step: no sweep
    assert swept_list.stats.n_prunes == 0

    step = rng.normal(size=positions.shape)
    step *= jitter * 0.5 * b / np.linalg.norm(step, axis=1)[:, None]
    step[:4] = 0.0
    twin.move(step)
    twin.step()
    assert swept_list.stats.n_prunes == 1
    inner = swept_list.inner_rows(twin.sides[0][0], rc)
    assert inner is not None and len(inner[1]) < len(swept_list.csr_neighbors)

    # Each moves 0.25 b toward the other: 2 max_disp = 0.5 b <= b, and
    # the pair, rc + 0.4 b apart at the build, is now inside rc.
    toward = np.zeros_like(positions)
    toward[0, 0], toward[1, 0] = 0.25 * b, -0.25 * b
    twin.move(toward)
    twin.step()
    system = twin.sides[0][0]
    assert _separation(system, 0, 1) < rc
    assert _in_rows(swept_list.inner_rows(system, rc), 0, 1)

    # 2 max_disp + |dL| = 0.5 b + 1.3 b > b: the rows lapse, though the
    # displacements alone would keep them (atoms 2 and 3 are not in
    # them and are now inside rc); the stored list still holds.
    twin.move(box_factor=np.array([(lengths[0] - shrink) / lengths[0], 1.0, 1.0]))
    assert twin.step()[0] is False
    assert _separation(system, 2, 3) < rc
    assert not _in_rows(inner, 2, 3)
    assert swept_list.inner_rows(system, rc) is None

    # Past half the skin: both lists rebuild, then sweep again on reuse.
    far = rng.normal(size=positions.shape)
    far *= 0.6 * skin / np.linalg.norm(far, axis=1)[:, None]
    twin.move(far)
    assert twin.step()[0] is True
    twin.move(0.1 * step)
    assert twin.step()[0] is False
    assert swept_list.stats.n_prunes == 2 and declined_list.stats.n_prunes == 0
    assert swept_list.stats.n_builds == declined_list.stats.n_builds == 2


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_a_direct_compute_measures_the_displacement_itself(kind):
    """After a sweep, atoms move by between b/2 and skin/2 and the
    potential is called with no ``ensure()``: the rows lapse on the
    current positions, not on the last skin check's, and the pair that
    entered the cutoff from beyond the inner band is counted."""
    rng = np.random.default_rng(7)
    make, skin, (edge, _) = KINDS[kind]
    rc, b = make().cutoff, 0.5 * skin
    lengths = np.full(3, edge)
    positions = _gas(rng, 40, lengths, lengths[0])
    middle = 0.5 * lengths
    gap = rc + 1.25 * b
    positions[0] = middle - [0.5 * gap, 0.0, 0.0]
    positions[1] = middle + [0.5 * gap, 0.0, 0.0]
    twin = _Twin(kind, positions, lengths, (True, True, True))
    swept_list = twin.lists[0]
    twin.move(np.zeros_like(positions))
    twin.step()
    assert swept_list.stats.n_prunes == 1
    assert not _in_rows(swept_list.inner_rows(twin.sides[0][0], rc), 0, 1)

    d = 0.35 * skin
    assert 0.5 * b < d < 0.5 * skin
    toward = np.zeros_like(positions)
    toward[0, 0], toward[1, 0] = d, -d
    twin.move(toward)
    twin.step(ensure=False)
    system = twin.sides[0][0]
    assert _separation(system, 0, 1) < rc
    assert swept_list.inner_rows(system, rc) is None
    assert not swept_list.needs_rebuild(system)


def test_the_build_step_and_a_wider_cutoff_read_the_stored_rows():
    """No sweep on the build's step, none for a cutoff beyond the
    list's, and none without a kernel backend."""
    rng = np.random.default_rng(3)
    lengths = np.full(3, 14.0)
    system = AtomSystem(_gas(rng, 40, lengths, 14.0), Box(lengths))
    nlist = NeighborList(4.95, 1.0)
    nlist.build(system)
    nlist.stats.steps_since_build = 1
    assert nlist.inner_rows(system, 4.95) is None  # no kernels
    nlist.kernels = CompiledBackend()
    nlist.stats.steps_since_build = 0
    assert nlist.inner_rows(system, 4.95) is None
    nlist.stats.steps_since_build = 1
    assert nlist.inner_rows(system, 5.0) is None
    assert nlist.stats.n_prunes == 0
    assert nlist.inner_rows(system, 4.95) is not None
    assert nlist.stats.n_prunes == 1
