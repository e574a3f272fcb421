"""Compiled-backend tests: provider resolution and fallback semantics,
the bitwise contracts against the numpy implementations, the
backend x precision oracle matrix, and parallel determinism.

Everything that needs the native provider (a working C compiler) is
guarded by ``needs_compiled``; the availability/fallback tests run
everywhere because they exercise exactly the no-provider path.
"""

import hashlib
import re
import shutil
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.md.kernels as kernels_module
import repro.md.kernels.compiled as compiled_module
from repro.cli import main
from repro.md import policy_for
from repro.md.atoms import AtomSystem
from repro.md.box import Box
from repro.md.kernels import (
    BackendUnavailableError,
    CompiledBackend,
    KernelBackend,
    NumpyFastBackend,
    available_backends,
    backend_spec,
    get_backend,
    resolved_backend,
)
from repro.md.kernels import _cc_impl
from repro.md.kernels.base import DECLINED
from repro.md.kernels.compiled import (
    _smoke_test,
    compiled_available,
    provider_info,
    resolve_provider,
)
from repro.md.lattice import diamond_positions, eam_solid_system, lj_melt_system
from repro.md.neighbor import (
    NeighborList,
    cell_list_half_pairs,
    subdomain_directed_pairs,
)
from repro.md.potentials.base import StoredRows
from repro.md.potentials.charmm import CharmmCoulLong
from repro.md.potentials.eam import EAMAlloy, EAMParameters
from repro.md.potentials.lj import LennardJonesCut
from repro.md.potentials.tersoff import Tersoff, TersoffParameters
from repro.md.simulation import Simulation
from repro.parallel.forces import DomainLists, OwnerRows
from repro.parallel.halo import LocalIndex
from repro.parallel.shm import ShmArena
from tests.conftest import (
    brute_force_up_to,
    finite_difference_forces,
    huge_grid_case,
)

needs_compiled = pytest.mark.skipif(
    not compiled_available(),
    reason="no compiled provider (no working C compiler)",
)


@pytest.fixture
def no_compiler(monkeypatch):
    """No C compiler on this machine, as far as the provider can tell."""
    monkeypatch.setattr(_cc_impl, "_find_compiler", lambda: None)
    # The provider resolves once per process: start from an empty
    # cache and let monkeypatch put the old one back.
    monkeypatch.setattr(compiled_module, "_resolution", None)
    monkeypatch.setattr(kernels_module, "_warned_fallbacks", set())


# ---------------------------------------------------------------------------
# Availability, the resolved backend's answer, and the numpy_fast fallback
# ---------------------------------------------------------------------------
class TestAvailabilityAndFallback:
    def test_diagnostics_cover_every_backend(self):
        """Every registry name resolves to a backend that names the
        request it answers; the numpy ones never fall back and run on
        no native provider."""
        for name in available_backends():
            backend = get_backend(name)
            assert backend.requested == name
            if name != "compiled":
                assert (backend.name, backend.fallback) == (name, None)
                assert backend.provider is None

    @needs_compiled
    def test_diagnostic_names_the_provider(self):
        provider, reason = resolve_provider()
        assert provider is not None and reason is None
        backend = get_backend("compiled")
        assert (backend.name, backend.provider, backend.fallback) == (
            "compiled", provider.kind, None,
        )
        assert resolved_backend(CompiledBackend())[1] == "cc"

    @needs_compiled
    def test_provider_info_shape_is_pinned(self):
        """``kind`` feeds job addresses and manifests as
        ``backend_provider``; it is ``cc`` and nothing else."""
        info = provider_info()
        assert set(info) == {"kind", "version"}
        assert info["kind"] == "cc"
        assert isinstance(info["version"], str) and info["version"]

    def test_disabled_provider_reports_why(self, no_compiler):
        assert not compiled_available()
        assert provider_info() is None
        provider, reason = resolve_provider()
        assert provider is None
        assert reason.startswith("cc: ") and "no C compiler found" in reason
        with pytest.warns(RuntimeWarning, match="falling back"):
            backend = get_backend("compiled")
        assert (backend.requested, backend.name) == ("compiled", "numpy_fast")
        assert backend.provider is None
        assert backend.fallback == reason

    def test_auto_never_falls_back(self, no_compiler):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # auto must not warn
            backend = get_backend("auto")
        assert (backend.requested, backend.name) == ("auto", "numpy_fast")
        assert backend.fallback is None

    def test_constructor_raises_with_reason(self, no_compiler):
        with pytest.raises(BackendUnavailableError, match="no C compiler found"):
            CompiledBackend()

    def test_get_backend_falls_back_and_warns_once(self, no_compiler):
        with pytest.warns(RuntimeWarning, match="falling back to 'numpy_fast'"):
            backend = get_backend("compiled")
        assert type(backend) is NumpyFastBackend
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a second warning would raise
            assert type(get_backend("compiled")) is NumpyFastBackend

    def test_simulation_survives_unavailable_compiled(self, no_compiler):
        """Requesting ``compiled`` can never break a run."""
        sim = Simulation(
            lj_melt_system(256, seed=3), [LennardJonesCut(cutoff=2.5)]
        )
        with pytest.warns(RuntimeWarning, match="unavailable"):
            sim.set_backend("compiled")
        assert sim.backend.name == "numpy_fast"
        assert sim.backend.requested == "compiled"
        sim.run(2)
        assert np.isfinite(sim.total_energy())

    def test_disabled_provider_runs_lj_unfused_within_parity(self, no_compiler):
        """No provider, no fused pass: ``compiled`` degrades to a backend
        whose hook declines, and LJ forces/energy/virial from the numpy
        path it stays on track the ``numpy_ref`` oracle to 1e-12."""
        with pytest.warns(RuntimeWarning, match="falling back"):
            backend = get_backend("compiled")
        system, potential = _jittered_case("lj")
        nlist = NeighborList(2.5, 0.3)
        nlist.build(system)
        assert _hook(backend, potential, system, nlist) is None
        results = {}
        for name, kernel in (("fallback", backend), ("ref", get_backend("numpy_ref"))):
            potential.backend = kernel
            system.forces[...] = 0.0
            results[name] = (potential.compute(system, nlist), system.forces.copy())
        (got, got_forces), (ref, ref_forces) = results["fallback"], results["ref"]
        assert got.interactions == ref.interactions
        assert abs(got.energy - ref.energy) <= 1e-12 * abs(ref.energy)
        assert abs(got.virial - ref.virial) <= 1e-12 * abs(ref.virial)
        assert (
            np.linalg.norm(got_forces - ref_forces)
            <= 1e-12 * np.linalg.norm(ref_forces)
        )

    def test_unknown_backend_error_lists_degraded_reasons(self, no_compiler):
        with pytest.raises(ValueError, match="compiled: cc: .*no C compiler found"):
            get_backend("cuda")

    def test_failing_cc_is_authoritative_and_falls_back(
        self, tmp_path, monkeypatch
    ):
        """A set ``$CC`` is the only compiler tried — no silent retry
        with cc/gcc/clang.  One that exits non-zero leaves the provider
        unavailable with the usual reason, error, one-time warning
        and a run that still completes.  (The provider resolves once per
        process, so the cache is reset after changing ``$CC``.)"""
        not_a_compiler = tmp_path / "not-a-compiler"
        not_a_compiler.write_text("#!/bin/sh\necho 'cannot compile' >&2\nexit 3\n")
        not_a_compiler.chmod(0o755)
        monkeypatch.setenv("CC", str(not_a_compiler))
        monkeypatch.setattr(compiled_module, "_resolution", None)
        monkeypatch.setattr(kernels_module, "_warned_fallbacks", set())
        assert _cc_impl._find_compiler() == str(not_a_compiler)
        assert not compiled_available()
        assert provider_info() is None
        assert "failed (exit 3): cannot compile" in resolve_provider()[1]
        with pytest.raises(BackendUnavailableError, match=r"failed \(exit 3\)"):
            CompiledBackend()
        with pytest.warns(RuntimeWarning, match="falling back to 'numpy_fast'"):
            backend = get_backend("compiled")
        assert type(backend) is NumpyFastBackend
        assert "failed (exit 3): cannot compile" in backend.fallback
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a second warning would raise
            sim = Simulation(lj_melt_system(256, seed=3), [LennardJonesCut(cutoff=2.5)])
            sim.set_backend("compiled")
        assert sim.backend.name == "numpy_fast"
        sim.run(2)
        assert np.isfinite(sim.total_energy())

    def test_missing_cc_is_not_replaced_by_a_default(self, monkeypatch):
        monkeypatch.setenv("CC", "no-such-compiler-on-any-path")
        monkeypatch.setattr(compiled_module, "_resolution", None)
        assert _cc_impl._find_compiler() is None
        assert "no C compiler found" in resolve_provider()[1]

    SCALE = "scale lj --workers 2 --steps 2 --atoms 500 --backend".split()

    def test_scale_reports_no_fallback_for_auto(self, capsys):
        """``auto`` asks for whatever runs here, so it never falls back."""
        assert main([*self.SCALE, "auto"]) == 0
        assert "unavailable" not in capsys.readouterr().out

    def test_scale_reports_the_fallback_of_an_unavailable_backend(
        self, no_compiler, capsys
    ):
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert main([*self.SCALE, "compiled"]) == 0
        out = capsys.readouterr().out
        assert "backend 'compiled' is unavailable (cc: " in out
        assert "no C compiler found" in out
        assert "using 'numpy_fast'" in out

    @needs_compiled
    def test_backend_spec_round_trips(self):
        assert backend_spec(CompiledBackend()) == "compiled"


# ---------------------------------------------------------------------------
# Bitwise contracts vs the numpy implementations (float64)
# ---------------------------------------------------------------------------
@needs_compiled
class TestBitwiseContracts:
    def test_scatter_bitwise_vs_bincount(self):
        rng = np.random.default_rng(5)
        backend = CompiledBackend()
        n, m = 64, 5000
        idx = np.sort(rng.integers(0, n, m))
        vals = rng.normal(size=m)
        out = np.zeros(n)
        backend.scatter_add_sorted(out, idx, vals)
        assert np.array_equal(
            out, np.bincount(idx, weights=vals, minlength=n)
        )

    def test_scatter_add_sorted_vectors_bitwise(self):
        rng = np.random.default_rng(6)
        backend = CompiledBackend()
        n, m = 48, 3000
        idx = np.sort(rng.integers(0, n, m))
        vecs = rng.normal(size=(m, 3))
        out = np.zeros((n, 3))
        backend.scatter_add_sorted(out, idx, vecs)
        for d in range(3):
            assert np.array_equal(
                out[:, d],
                np.bincount(idx, weights=vecs[:, d], minlength=n),
            )

    def test_sorted_scatter_is_fixed_per_segment_not_bincount_on_numpy_fast(self):
        """``scatter_add_sorted``'s contract is a rule fixed per segment:
        ``compiled`` sums each run in input order (``np.bincount``'s
        bits), ``numpy_fast`` as ``np.add.reduceat`` does — the first
        value plus the pairwise ``np.add.reduce`` of the rest — which is
        not bincount's (a single 1000-term segment shows it)."""
        rng = np.random.default_rng(8)
        n, differ = 40, 0
        for m in [1000] + [300] * 49:
            index = np.sort(rng.integers(0, 1 if m == 1000 else n, m))
            values = rng.normal(size=m)
            starts = np.flatnonzero(np.diff(index, prepend=-1))
            pairwise = np.zeros(n)
            pairwise[index[starts]] += [
                segment[0] + np.add.reduce(segment[1:])
                for segment in np.split(values, starts[1:])
            ]
            in_order = np.zeros(n) + np.bincount(index, weights=values, minlength=n)
            fast, native = np.zeros(n), np.zeros(n)
            NumpyFastBackend().scatter_add_sorted(fast, index, values)
            CompiledBackend().scatter_add_sorted(native, index, values)
            assert _same_bits(fast, pairwise) and _same_bits(native, in_order)
            differ += not _same_bits(fast, in_order)
            assert m < 1000 or differ
        assert differ > 1

    def test_pair_geometry_bitwise_vs_numpy_fast(self):
        rng = np.random.default_rng(11)
        box = Box([9.0, 10.0, 11.0], periodic=(True, True, False))
        system = AtomSystem(rng.uniform(0, 1, (400, 3)) * box.lengths, box)
        nlist = NeighborList(2.0, 0.3)
        nlist.build(system)
        system.positions += rng.normal(scale=0.02, size=system.positions.shape)
        ref = NumpyFastBackend().current_pairs(system, nlist, 2.0)
        got = CompiledBackend().current_pairs(system, nlist, 2.0)
        for a, b in zip(ref, got):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "periodic", [(True, True, True), (True, False, True)]
    )
    def test_neighbor_build_matches_cell_list_half_pairs(self, periodic):
        rng = np.random.default_rng(8)
        box = Box([12.0, 11.0, 10.0], periodic=periodic)
        positions = rng.uniform(0, 1, (1500, 3)) * box.lengths
        rows = CompiledBackend().neighbor_pairs(positions, box, 2.0)
        _assert_rows_equal(rows, _sorted_reference(positions, box, 2.0))

    def test_neighborlist_csr_identical_with_kernels_attached(self, cell_lists):
        rng = np.random.default_rng(9)
        box = Box([12.0, 12.0, 12.0])
        system = AtomSystem(rng.uniform(0, 12, (1200, 3)), box)
        plain = NeighborList(2.0, 0.3)
        plain.build(system)
        accelerated = NeighborList(2.0, 0.3)
        accelerated.kernels = CompiledBackend()
        accelerated.build(system)
        assert np.array_equal(plain.pair_i, accelerated.pair_i)
        assert np.array_equal(plain.csr_neighbors, accelerated.csr_neighbors)
        assert np.array_equal(plain.csr_offsets, accelerated.csr_offsets)

    def test_build_stats_identical_with_kernels_attached(self, cell_lists):
        """neighbors_per_atom() measured through the native build must
        agree exactly with the numpy one."""
        system = lj_melt_system(4000, seed=21)
        rng = np.random.default_rng(22)
        system.positions += rng.normal(scale=0.05, size=system.positions.shape)
        plain = NeighborList(2.5, 0.3)
        plain.build(system)
        accelerated = NeighborList(2.5, 0.3)
        accelerated.kernels = CompiledBackend()
        accelerated.build(system)
        assert accelerated.neighbors_per_atom() == plain.neighbors_per_atom() > 40
        assert accelerated.stats.last_pairs == plain.stats.last_pairs

    def test_float32_positions_use_numpy_path(self):
        """SINGLE-policy builds stay on numpy: pair membership near the
        cutoff is decided in float32 there, which the compiled build
        does not replicate."""
        rng = np.random.default_rng(3)
        positions = rng.uniform(0, 8, (100, 3)).astype(np.float32)
        assert (
            CompiledBackend().neighbor_pairs(positions, Box([8.0] * 3), 2.0)
            is None
        )


# ---------------------------------------------------------------------------
# Native CSR neighbor build and skin check vs the numpy expressions
# ---------------------------------------------------------------------------
def _sorted_reference(positions, box, rc):
    """``lexsort(cell_list_half_pairs)`` + offsets."""
    i, j = cell_list_half_pairs(positions, box, rc)
    order = np.lexsort((j, i))
    i, j = i[order], j[order]
    offsets = np.zeros(len(positions) + 1, dtype=np.int64)
    np.cumsum(np.bincount(i, minlength=len(positions)), out=offsets[1:])
    return i, j, offsets


def _assert_rows_equal(rows, reference):
    """The native build's CSR rows are the reference's partners and
    offsets (it writes no heads: the offsets are them)."""
    _, ref_j, ref_offsets = reference
    assert np.array_equal(rows.partners, ref_j)
    assert np.array_equal(rows.offsets, ref_offsets)


@st.composite
def _binned_configurations(draw):
    """Boxes and atoms that stress the binning: non-cubic, any
    periodicity mask, exactly three cells on periodic dims, sparse
    enough for empty cells, atoms on cell faces and on both box faces
    (``origin`` and ``origin + L``)."""
    rc = draw(st.floats(0.8, 1.6))
    periodic = draw(st.tuples(st.booleans(), st.booleans(), st.booleans()))
    cells = [draw(st.integers(3 if p else 1, 6)) for p in periodic]
    # floor(L / rc) == cells[d]: the lower bound keeps the quotient off
    # the integer so rounding cannot drop a cell.
    lengths = np.array([(c + draw(st.floats(1e-9, 0.9))) * rc for c in cells])
    origin = np.array([draw(st.floats(-3.0, 3.0)) for _ in range(3)])
    n = draw(st.integers(2, 160))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    rel = rng.uniform(0.0, 1.0, (n, 3)) * lengths
    cell_size = lengths / cells
    on_cell_face = np.minimum(np.round(rel / cell_size) * cell_size, lengths)
    snap = rng.random((n, 3))
    rel = np.where(snap < 0.15, on_cell_face, rel)
    rel = np.where(snap > 0.97, lengths, rel)
    rel = np.where((snap > 0.94) & (snap <= 0.97), 0.0, rel)
    box = Box(lengths, periodic=periodic, origin=origin)
    return box, np.ascontiguousarray(rel + origin), rc


@needs_compiled
class TestNativeNeighborBuild:
    @given(config=_binned_configurations())
    @settings(max_examples=200, deadline=None)
    def test_csr_build_equals_lexsorted_numpy_build(self, config):
        """Property: pairs, orientations, order and offsets all equal the
        sorted numpy build."""
        box, positions, rc = config
        rows = CompiledBackend().neighbor_pairs(positions, box, rc)
        assert rows is not None
        _assert_rows_equal(rows, _sorted_reference(positions, box, rc))

    def test_capacity_overflow_retry_returns_the_same_list(self, monkeypatch):
        """One dense blob in a big box: the uniform-density estimate is
        ~20x too small, so the first buffer overflows and the retry
        (sized from the reported count) must deliver the same rows."""
        rng = np.random.default_rng(12)
        box = Box([30.0, 30.0, 30.0])
        positions = 14.0 + rng.uniform(0, 1, (600, 3))
        backend = CompiledBackend()
        capacities = []
        native = backend._impl.cell_csr

        def recording(pos, lengths, origin, periodic, rc, oj, offsets):
            capacities.append(len(oj))
            return native(pos, lengths, origin, periodic, rc, oj, offsets)

        monkeypatch.setattr(backend._impl, "cell_csr", recording)
        rows = backend.neighbor_pairs(positions, box, 2.0)
        n_pairs = 600 * 599 // 2  # the blob's diameter is < rc
        assert len(capacities) == 2
        assert capacities[0] < n_pairs == capacities[1] == len(rows.partners)
        _assert_rows_equal(rows, _sorted_reference(positions, box, 2.0))
        # The hint now covers this density: the next build fits first time.
        backend.neighbor_pairs(positions, box, 2.0)
        assert len(capacities) == 3 and capacities[2] >= n_pairs

    def test_a_smaller_build_leaves_the_next_list_build_room(self, monkeypatch):
        """``neighbors_per_atom`` builds at the force cutoff, fewer pairs
        than the stored list: the next list build must still fit its
        first buffer, not overflow and run twice."""
        system = lj_melt_system(2000, seed=4)
        nlist = NeighborList(2.5, 0.3)
        nlist.kernels = backend = CompiledBackend()
        calls = []
        native = backend._impl.cell_csr

        def counting(*args):
            calls.append(len(args[5]))
            return native(*args)

        monkeypatch.setattr(backend._impl, "cell_csr", counting)
        nlist.build(system)
        nlist.neighbors_per_atom()
        del calls[:]
        nlist.build(system)
        assert len(calls) == 1 and calls[0] >= nlist.stats.last_pairs

    def test_grid_too_large_to_index_is_declined_not_dereferenced(self, cell_lists):
        """2^64 cells wrap the int64 product to 0: the bins were then
        allocated for no cells and the far-corner atom's flat index
        landed outside them (SIGSEGV).  Both builders must decline —
        in-process, this test *is* the crash on the parent — and leave
        the caller on the numpy path's named error."""
        backend = CompiledBackend()
        # cell_rows bins at rc / 2, cell_csr at rc: twice the extent.
        positions, box, rc = huge_grid_case()
        assert backend.directed_rows(positions, box, rc) is None
        with pytest.raises(ValueError, match="link-cell grid"):
            subdomain_directed_pairs(positions, rc, kernels=backend)
        positions, box, rc = huge_grid_case(scale=2)
        assert backend.neighbor_pairs(positions, box, rc) is None
        nlist = NeighborList(rc, 0.0)
        nlist.kernels = backend
        with pytest.raises(ValueError, match="link-cell grid"):
            nlist.build(AtomSystem(positions, box))

    def test_unmet_preconditions_fall_back_to_numpy(self):
        """The compare-and-shift minimum image is only exact for
        in-box coordinates and >= 3 cells per periodic dim; the kernel
        checks both and declines otherwise."""
        backend = CompiledBackend()
        rng = np.random.default_rng(2)
        positions = rng.uniform(0, 9, (50, 3))
        assert backend.neighbor_pairs(positions, Box([9.0] * 3), 4.0) is None
        stray = positions.copy()
        stray[7, 1] += 2 * 9.0
        assert backend.neighbor_pairs(stray, Box([9.0] * 3), 2.0) is None
        open_box = Box([9.0] * 3, periodic=(False, False, False))
        assert backend.neighbor_pairs(stray, open_box, 4.0) is not None

    @pytest.mark.parametrize(
        "scale, rebuild", [(1 - 2.0**-40, False), (1.0, False), (1 + 2.0**-40, True)]
    )
    @pytest.mark.parametrize("periodic", [(True, True, True), (True, False, True)])
    def test_skin_check_agrees_with_numpy_around_half_skin(
        self, scale, rebuild, periodic, cell_lists
    ):
        """Just below / at / above ``skin / 2`` (and a whole periodic
        image away) the native maximum is bitwise the numpy one, so the
        rebuild decision cannot depend on the backend.  Box, origin and
        the probe atom are dyadic so "at" is exactly representable."""
        rng = np.random.default_rng(31)
        box = Box([9.0, 8.0, 7.0], periodic=periodic, origin=[-1.0, 0.5, 2.0])
        system = AtomSystem(
            box.origin + rng.uniform(0, 1, (300, 3)) * box.lengths, box
        )
        system.positions[17] = [1.0, 1.0, 3.0]
        plain = NeighborList(2.0, 0.5)
        native = NeighborList(2.0, 0.5)
        native.kernels = CompiledBackend()
        plain.build(system)
        native.build(system)
        system.positions += rng.normal(scale=0.01, size=(300, 3))
        system.positions[17] = [1.0, 1.0, 3.0 + 0.25 * scale]
        system.positions[:, 0] += box.lengths[0]
        disp = box.minimum_image(
            box.wrap(system.positions) - plain._positions_at_build
        )
        expected = float(np.max(np.einsum("ij,ij->i", disp, disp)))
        assert expected == (0.25 * scale) ** 2
        got = native.kernels.max_displacement_sq(
            system.positions, native._positions_at_build, box
        )
        assert got == expected
        assert native.needs_rebuild(system) is rebuild
        assert plain.needs_rebuild(system) is rebuild

    def test_skin_check_propagates_nan_like_numpy(self):
        box = Box([9.0, 8.0, 7.0])
        reference = np.random.default_rng(4).uniform(0, 7, (20, 3))
        positions = reference + 0.01
        positions[3, 1] = np.nan
        assert np.isnan(
            CompiledBackend().max_displacement_sq(positions, reference, box)
        )

    def test_smoke_test_demotes_a_provider_with_unsorted_rows(self):
        """The neighbor list no longer sorts native rows, so a provider
        that emits the right pairs in the wrong order must not pass."""
        _smoke_test(resolve_provider()[0])  # the real provider passes
        _assert_demoted("cell_csr", _after(_reverse_rows))


# ---------------------------------------------------------------------------
# The provider's instance table is the oracle for binding and coverage
# ---------------------------------------------------------------------------
_TABLE_INSTANCES = [
    (stem, val, acc)
    for stem, (instances, _, _) in _cc_impl.KERNELS.items()
    for val, acc in instances
]
F32, F64 = np.dtype(np.float32), np.dtype(np.float64)
#: ``(stem, VAL, ACC)`` of every float pair a row's entry can be handed
#: and has no instance of (a row without accumulators looks up
#: ``(VAL, VAL)``).
_UNBOUND_PAIRS = [
    (stem, val, acc)
    for stem, (instances, _, signature) in _cc_impl.KERNELS.items()
    for val in (F32, F64)
    for acc in ((F32, F64) if "a" in signature.lower() else (val,))
    if (val, acc) not in instances
]


def _prototypes():
    """``symbol -> [(const, C type, pointer), ...]`` of every exported
    function in ``_SOURCE``, read per instance: each ``#define VAL``
    opens one, whose ``VAL``, ``ACC`` and ``FN(stem)`` are applied to
    the text up to the next."""
    found = {}
    for chunk in _cc_impl._SOURCE.split("#define VAL ")[1:]:
        val, acc, suffix = re.match(
            r"(\w+)\n#define ACC (\w+)\n#define FN\(stem\) stem##(\w+)\n", chunk
        ).groups()
        text = re.sub(r"FN\((\w+)\)", lambda m: m.group(1) + suffix, chunk)
        text = re.sub(r"\bACC\b", acc, re.sub(r"\bVAL\b", val, text))
        for name, params in re.findall(r"^\w+ (\w+)\(([^)]*)\)\s*\{", text, re.M):
            bare = [param.split() for param in params.split(",")]
            found[name] = [
                (words[0] == "const", words[words[0] == "const"], "*" in "".join(words))
                for words in bare
            ]
    return found


def _nudge(value, tier):
    """``value`` moved one ulp (one, for an integer) or, under a
    tolerance, ten times past it."""
    value = np.asarray(value)[()]
    if np.issubdtype(value.dtype, np.integer):
        return value + 1
    if tier:
        return value + value.dtype.type(10 * tier * (1 + abs(value)))
    return np.nextafter(value, value.dtype.type(np.inf))


def _nudging(k, tier, at=0):
    """Nudge the element ``at`` (the first) of the written argument ``k``."""
    def corrupt(args, result):
        args[k].flat[at] = _nudge(args[k].flat[at], tier)
        return result

    return corrupt


def _after(corrupt):
    """A mutation: the real kernel, then ``corrupt(args, result)`` on
    what it wrote; its return replaces the kernel's."""
    return lambda real: lambda *args: corrupt(args, real(*args))


def _reverse_rows(args, count):
    """Every CSR row reversed: the neighbor list no longer sorts native
    rows, so the right pairs in the wrong order must not pass."""
    *_, oj, _, offsets = args
    if 0 <= count <= len(oj):
        for a in range(len(offsets) - 1):
            row = slice(offsets[a], offsets[a + 1])
            oj[row] = oj[row][::-1].copy()
    return count


def _rows_by_index(args, count):
    """Each directed row in local-index order: the engine no longer
    sorts native rows by global id."""
    *_, oj, _, offsets = args
    if 0 <= count <= len(oj):
        for a in range(len(offsets) - 1):
            row = slice(offsets[a], offsets[a + 1])
            oj[row] = np.sort(oj[row])
    return count


def _overrun(k):
    """Write the cell one past the room the build was given (the smoke
    test hands its rows in as views of a longer buffer)."""

    def corrupt(args, count):
        args[k].base[-1] = 0
        return count

    return corrupt


def _drop_last_pair(args, count):
    """The all-pairs build one pair short."""
    args[-1][-1] -= 1
    return count - 1


def _reversed_rows_input(real):
    """Each directed row handed to the kernel in reverse."""
    def rows(pos, gids, offsets, n_owned, partners, *rest):
        flipped = partners.copy()
        for a in range(len(offsets) - 1):
            row = slice(offsets[a], offsets[a + 1])
            flipped[row] = partners[row][::-1]
        return real(pos, gids, offsets, n_owned, flipped, *rest)

    return rows


def _past_the_tier(args, count):
    args[-2][0, 0] += 1e-9
    return count


def _not_repeatable():
    """Energy one ulp low on odd calls and one ulp high on even ones."""
    calls = []

    def corrupt(args, count):
        calls.append(1)
        args[-1][0] = np.nextafter(args[-1][0], np.inf * (-1) ** len(calls))
        return count

    return _after(corrupt)


def _assert_demoted(stem, corrupt, val=F64, acc=F64):
    """With the ``(stem, val, acc)`` instance swapped for
    ``corrupt(real)``, the smoke test refuses the provider and names that
    instance; the real instance is back in place afterwards."""
    provider, _ = resolve_provider()
    real = provider.bound[stem, val, acc]
    symbol = _cc_impl.symbol(stem, val, acc)
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(provider.bound, (stem, val, acc), corrupt(real))
        with pytest.raises(AssertionError, match=f"^{symbol} deviates from "):
            _smoke_test(provider)


def _mutation_rows():
    """``(stem, val, acc, corrupt)`` rows with an ``id``: a no-op for
    every instance; one ulp in each output every instance declares (ten
    times the tolerance for a tier row), its result included; and a
    build that writes past its room.  The mutations particular to one
    kernel are in that kernel's tests."""
    f64, rows = np.dtype(np.float64), []

    def row(stem, val, acc, name, corrupt):
        rows.append(pytest.param(
            stem, val, acc, corrupt, id=f"{_cc_impl.symbol(stem, val, acc)}-{name}"
        ))

    for stem, val, acc in _TABLE_INSTANCES:
        instances, restype, signature = _cc_impl.KERNELS[stem]
        case = compiled_module._SMOKE_CASES[stem]
        _, tier = compiled_module._contract(case, instances[val, acc])
        row(stem, val, acc, "no-op", lambda real: lambda *args: 0)
        for k, letter in enumerate(signature.split()):
            if letter.isupper() and k not in case.scratch:
                row(stem, val, acc, f"output-{k}", _after(_nudging(k, tier)))
        if restype is not None:
            row(stem, val, acc, "result", _after(
                lambda args, result, tier=tier: _nudge(result, tier)
            ))
    for stem, rows_at in (("brute_csr", 5), ("cell_csr", 6), ("cell_rows", 8)):
        row(stem, f64, f64, "overruns", _after(_overrun(rows_at)))
    return rows


_MUTATIONS = _mutation_rows()


class _Captured(Exception):
    """Raised by :class:`_Capture` once it holds an entry's arguments."""


class _Capture:
    """The provider with its ``stem`` entry replaced by one that keeps
    its arguments and stops the caller."""

    def __init__(self, provider, stem):
        self._provider, self._stem, self.args = provider, stem, None

    def __getattr__(self, name):
        if name != self._stem:
            return getattr(self._provider, name)

        def capture(*args):
            self.args = list(args)
            raise _Captured

        return capture


def _smoke_inputs(stem, val, acc, seed=7):
    """``(case, inputs)``: ``stem``'s smoke declaration and the inputs
    it draws at ``seed`` under the ``(val, acc)`` instance's policy, a
    builder's partners room included."""
    case = compiled_module._SMOKE_CASES[stem]
    policy = _cc_impl.KERNELS[stem][0][val, acc]
    a = case.inputs(np.random.default_rng(seed), policy)
    if compiled_module._contract(case, policy)[0] == "builder":
        a = SimpleNamespace(**vars(a), out=np.empty(64, np.int64))
    return case, a


def _smoke_call(provider, stem, val, acc):
    """``(letters, arguments, inputs)``: what ``stem``'s smoke
    declaration first hands its entry, each argument with its signature
    letter, and the inputs they were taken from."""
    case, a = _smoke_inputs(stem, val, acc)
    capture = _Capture(provider, stem)
    with pytest.raises(_Captured):
        case.call(capture, a)
    return _given(stem), capture.args, a


def _smoke_arguments(provider, stem, val, acc):
    """``(letters, arguments)`` of :func:`_smoke_call`."""
    return _smoke_call(provider, stem, val, acc)[:2]


def _given(stem):
    """The letters of the arguments ``stem``'s entry takes."""
    return [letter for letter in _cc_impl.KERNELS[stem][2].split() if letter != "#"]


def _broken(array, written):
    """``array`` broken each way an entry must refuse: in a dtype no row
    takes, strided and, when the kernel writes it, read-only."""
    wrong = {"f": np.float16, "i": np.int32, "u": np.bool_}[array.dtype.kind]
    variants = [np.zeros_like(array, dtype=wrong)]
    if len(array) > 1:
        variants.append(np.repeat(array, 2, axis=0)[::2])
        assert not variants[-1].flags.c_contiguous
    if written:
        variants.append(array.copy())
        variants[-1].flags.writeable = False
    return variants


def _assert_declined(entry, args):
    """``entry(*args)`` is declined and leaves every array as it was."""
    before = [np.array(arg, copy=True) for arg in args]
    assert entry(*args) is DECLINED
    for arg, was in zip(args, before):
        assert _same_bits(arg, was)


@needs_compiled
class TestInstanceTable:
    @pytest.mark.parametrize("stem, val, acc, corrupt", _MUTATIONS)
    def test_smoke_test_demotes_a_provider_with_a_dead_instance(
        self, stem, val, acc, corrupt
    ):
        """Every bound instance is *called and checked* before a provider
        is trusted: swapping any one of them for a no-op, or for a wrapper
        that corrupts what the real kernel wrote, must fail naming it."""
        _assert_demoted(stem, corrupt, val, acc)

    def test_declarations_cover_the_table_exactly(self):
        assert set(compiled_module._SMOKE_CASES) == set(_cc_impl.KERNELS)

    def test_a_row_without_a_declaration_demotes_the_provider_by_name(
        self, monkeypatch
    ):
        monkeypatch.delitem(compiled_module._SMOKE_CASES, "cell_rows")
        monkeypatch.setattr(compiled_module, "_resolution", None)
        provider, reason = resolve_provider()
        assert provider is None
        assert "'cell_rows' has no smoke declaration" in reason

    @pytest.mark.parametrize(
        "stem, val, acc",
        _TABLE_INSTANCES,
        ids=[_cc_impl.symbol(*instance) for instance in _TABLE_INSTANCES],
    )
    @given(seed=st.integers(0, 2**63 - 1))
    @settings(max_examples=10, deadline=None)
    def test_every_declaration_holds_at_drawn_seeds(self, stem, val, acc, seed):
        """The declared cases hold their edge cases by construction, not
        by the smoke test's seed: the kernel meets its row's contract on
        any draw."""
        provider, _ = resolve_provider()
        compiled_module._check(provider, stem, val, acc, np.random.default_rng(seed))

    def test_stored_list_case_holds_empty_rows_and_a_straddling_row(self):
        """The rows every stored-list kernel is checked on (``pair_geom``,
        ``lj_half``, ``prune_rows``, ``eam_geom``) start with an empty
        row, hold empty rows between full ones and a row across the first
        ``LJ_BLOCK`` boundary, at every draw."""
        a = compiled_module._pair_inputs(np.random.default_rng(), policy_for("double"))
        lengths = np.diff(a.offsets)
        full = np.flatnonzero(lengths)
        assert lengths[0] == 0 and np.any(lengths[full[0] : full[-1]] == 0)
        row = np.searchsorted(a.offsets, _LJ_BLOCK, side="right") - 1
        assert a.offsets[row] < _LJ_BLOCK < a.offsets[row + 1]
        heads = np.repeat(np.arange(len(a.pos)), lengths)
        assert np.array_equal(heads, a.pi)

    def test_owner_rows_case_holds_empty_rows_and_ghost_headed_rows(self):
        """``lj_rows`` is checked on owned rows with empty ones among
        them and full ghost-headed rows past them, positions read through
        ``gids`` from a longer array, at every draw; a kernel that walks
        the ghost-headed rows too is refused."""
        a = compiled_module._owner_inputs(np.random.default_rng(), policy_for("double"))
        lengths = np.diff(a.offsets)
        assert lengths[0] == 0 and np.any(lengths[: a.n_owned] == 0)
        assert np.all(lengths[a.n_owned : a.n_owned + 8] > 0)
        assert len(a.world) > len(a.gids) and _same_bits(a.world[a.gids], a.pos)

        def every_row(real):
            return lambda pos, gids, offsets, n_owned, *rest: real(
                pos, gids, offsets, len(offsets) - 1, *rest
            )

        _assert_demoted("lj_rows", every_row)

    @pytest.mark.parametrize("stem", ["brute_csr", "cell_csr", "cell_rows"])
    def test_every_builder_is_checked_at_half_its_room(self, stem):
        """The builder protocol runs each neighbor build once with half
        the partners room its rows need — it must report the true count
        — and once with room to spare."""
        provider, _ = resolve_provider()
        real, calls = provider.bound[stem, F64, F64], []

        def spy(*args):
            count = real(*args)
            calls.append((len(args[-3]), count))
            return count

        with pytest.MonkeyPatch.context() as patch:
            patch.setitem(provider.bound, (stem, F64, F64), spy)
            compiled_module._check(provider, stem, F64, F64, np.random.default_rng(4))
        (short, count), (room, again) = calls
        assert short == count // 2 < count == again <= room

    def test_instances_are_the_policies_dtype_combinations(self):
        f32, f64 = np.dtype(np.float32), np.dtype(np.float64)
        assert set(_cc_impl.ACCUMULATE) == {(f32, f32), (f32, f64), (f64, f64)}
        assert set(_cc_impl.COMPUTE) == {(f32, f32), (f64, f64)}
        assert set(_cc_impl.GEOMETRY) == {(f32, f32), (f64, f64)}
        assert set(_cc_impl.DOUBLE) == {(f64, f64)}
        for (val, acc), policy in _cc_impl.ACCUMULATE.items():
            assert (policy.compute_dtype, policy.accumulate_dtype) == (val, acc)
        for (val, _), policy in _cc_impl.COMPUTE.items():
            assert policy.compute_dtype == val
        for (val, _), policy in _cc_impl.GEOMETRY.items():
            assert policy.storage_dtype == val

    @pytest.mark.parametrize(
        "stem, val, acc",
        _TABLE_INSTANCES,
        ids=[_cc_impl.symbol(*instance) for instance in _TABLE_INSTANCES],
    )
    def test_the_entry_declines_every_argument_its_signature_refuses(
        self, stem, val, acc
    ):
        """The smoke declaration's arguments run; any one array among
        them in a dtype no row takes, strided, or read-only where the
        signature writes it, and the entry returns ``DECLINED`` before
        the kernel runs: every array is byte for byte what it was."""
        provider, _ = resolve_provider()
        entry = getattr(provider, stem)
        letters, args = _smoke_arguments(provider, stem, val, acc)
        copies = [arg.copy() if isinstance(arg, np.ndarray) else arg for arg in args]
        assert entry(*copies) is not DECLINED
        for k, (letter, arg) in enumerate(zip(letters, args)):
            if isinstance(arg, np.ndarray):
                for variant in _broken(arg, letter.isupper()):
                    _assert_declined(entry, [*args[:k], variant, *args[k + 1 :]])

    @pytest.mark.parametrize(
        "stem, val, acc",
        _UNBOUND_PAIRS,
        ids=[_cc_impl.symbol(*pair) for pair in _UNBOUND_PAIRS],
    )
    def test_a_dtype_pair_with_no_instance_is_declined(self, stem, val, acc):
        """The row's value arrays in ``VAL`` and its accumulators in
        ``ACC``, a pair it has no instance of: declined, not a lookup
        error."""
        provider, _ = resolve_provider()
        instance = next(iter(_cc_impl.KERNELS[stem][0]))
        letters, args = _smoke_arguments(provider, stem, *instance)
        cast = {"v": val, "a": acc}
        _assert_declined(getattr(provider, stem), [
            np.zeros_like(arg, cast[letter.lower()]) if letter.lower() in cast else arg
            for letter, arg in zip(letters, args)
        ])

    def test_every_signature_agrees_with_its_prototype(self):
        """Each row's letters against the C prototype of every instance:
        the parameter count, pointer or scalar, the element C type, upper
        case exactly where the pointer is not ``const``, and each ``#``
        right after an array.  A wrong letter hands C a pointer of the
        wrong type, which only a wrong smoke result would otherwise show."""
        prototypes = _prototypes()
        for stem, val, acc in _TABLE_INSTANCES:
            letters = _cc_impl.KERNELS[stem][2].split()
            params = prototypes[_cc_impl.symbol(stem, val, acc)]
            assert len(params) == len(letters), stem
            value, accumulator = _cc_impl._C_TYPES[val][0], _cc_impl._C_TYPES[acc][0]
            ctypes_of = {
                "v": value, "a": accumulator, "i": "int64_t", "u": "uint8_t",
                "n": "int64_t", "#": "int64_t", "s": value,
            }
            for k, (letter, (const, ctype, pointer)) in enumerate(zip(letters, params)):
                array = letter.lower() in "vaiu"
                where = f"{_cc_impl.symbol(stem, val, acc)} argument {k}"
                assert pointer == array, where
                assert ctype == ctypes_of[letter.lower()], where
                assert const == (array and letter.islower()), where
                if letter == "#":
                    assert k > 0 and letters[k - 1].lower() in "vaiu", where

    @pytest.mark.skipif(shutil.which("nm") is None, reason="needs binutils nm")
    def test_library_exports_exactly_the_table(self):
        """Same program out: the table's 31 entry points, no more (a
        template helper leaking as a global) and no fewer (a row the
        generator skipped).  ``pppm_gather`` names no accumulator, so
        MIXED runs its ``_f32`` instance: there is no ``_f32f64`` twin."""
        provider, _ = resolve_provider()
        listing = subprocess.run(
            ["nm", "-D", "--defined-only", provider._lib._name],
            capture_output=True, text=True, check=True,
        ).stdout
        exported = {
            line.split()[-1]
            for line in listing.splitlines()
            if line.split()[-2] == "T" and not line.split()[-1].startswith("_")
        }
        assert exported == {_cc_impl.symbol(*i) for i in _TABLE_INSTANCES}
        assert sorted(exported) == [
            "acc_pair_f32", "acc_pair_f32f64", "acc_pair_f64",
            "acc_scaled_f32", "acc_scaled_f32f64", "acc_scaled_f64",
            "brute_csr_f64", "cell_csr_f64", "cell_rows_f64", "charmm_terms_f64",
            "eam_density_f64", "eam_forces_f64", "eam_geom_f64",
            "lj_half_f64", "lj_rows_f64",
            "max_disp_sq_f64", "pair_geom_f32", "pair_geom_f64",
            "pppm_gather_f32", "pppm_gather_f64",
            "pppm_spread_f32", "pppm_spread_f32f64", "pppm_spread_f64",
            "prune_rows_f64",
            "scatter1_f32", "scatter1_f32f64", "scatter1_f64",
            "scatter3_f32", "scatter3_f32f64", "scatter3_f64",
            "tersoff_full_f64",
        ]

    def test_build_cache_is_keyed_by_the_generated_source(self):
        """No stale library can be reused: the file name carries a hash
        of the translation unit that was actually compiled, the
        compiler's version line, the CPU ``-march=native`` resolves to
        here (not the flag's text, which is the same on every host) and
        the flags."""
        provider, _ = resolve_provider()
        cc = _cc_impl._find_compiler()
        material = "\x00".join([
            _cc_impl._SOURCE, _cc_impl.compiler_id(cc), _cc_impl.target(cc) or "",
            *_cc_impl.cflags(cc),
        ])
        key = hashlib.sha256(material.encode()).hexdigest()[:16]
        assert provider._lib._name.endswith(f"repro_kernels_{key}.so")
        assert "#define FN(stem) stem##_f32f64\n" in _cc_impl._SOURCE

    def test_templated_kernels_have_one_body(self):
        """Each precision-generic kernel is written once and reaches
        the unit once per instance; no suffixed twin is spelled out."""
        templated = {
            **dict.fromkeys(
                ("scatter1", "scatter3", "acc_scaled", "acc_pair"),
                (_cc_impl._ACCUMULATE_C, _cc_impl.ACCUMULATE),
            ),
            **dict.fromkeys(
                ("pppm_stencil", "pppm_spread"),
                (_cc_impl._MESH_C, _cc_impl.ACCUMULATE),
            ),
            "pppm_gather": (_cc_impl._GATHER_C, _cc_impl.COMPUTE),
            **dict.fromkeys(
                ("min_image", "pair_geom"),
                (_cc_impl._GEOMETRY_C, _cc_impl.GEOMETRY),
            ),
        }
        for stem, (template, instances) in templated.items():
            definition = re.compile(
                rf"^(static inline )?\w+ FN\({stem}\)\(", re.MULTILINE
            )
            assert len(definition.findall(template)) == 1
            assert len(definition.findall(_cc_impl._SOURCE)) == len(instances)
            assert re.search(rf"^\w+ {stem}_f\d+", _cc_impl._SOURCE, re.M) is None


def _as_is(array, written):
    return array


def _read_only(array, written):
    """An input the kernel only reads, as a read-only copy."""
    if written:
        return array
    copy = array.copy()
    copy.flags.writeable = False
    return copy


def _from_bytes(array, written):
    """An input as a read-only view of a ``bytes`` object."""
    if written:
        return array
    return np.frombuffer(array.tobytes(), array.dtype).reshape(array.shape)


def _past_first(array, written):
    """A copy in a contiguous view one element into its buffer (``a[1:]``)."""
    view = np.empty(array.size + 1, array.dtype)[1:].reshape(array.shape)
    view[...] = array
    return view


def _prefix(array, written):
    """A copy in the first elements of a longer buffer (``buf[:n]``, the
    backend's scratch)."""
    view = np.empty(array.size + 5, array.dtype)[: array.size].reshape(array.shape)
    view[...] = array
    return view


class _Forms:
    """The provider with its ``stem`` entry handed every array argument
    as ``form(array, written)`` — the same values in another form — and
    what the kernel wrote copied back into the caller's array.  Each
    call must be accepted and leave every array it was handed with the
    reference count it had: a pointer the binding made (which holds its
    array, and a buffer export on it) must not outlive the call."""

    def __init__(self, provider, stem, form):
        self._provider, self._stem, self._form = provider, stem, form

    def __getattr__(self, name):
        real = getattr(self._provider, name)
        if name != self._stem:
            return real

        def entry(*args):
            letters = _given(self._stem)
            moved = [
                self._form(arg, letter.isupper()) if isinstance(arg, np.ndarray) else arg
                for letter, arg in zip(letters, args, strict=True)
            ]
            arrays = [arg for arg in moved if isinstance(arg, np.ndarray)]
            counts = [sys.getrefcount(array) for array in arrays]
            result = real(*moved)
            assert result is not DECLINED
            assert [sys.getrefcount(array) for array in arrays] == counts
            for letter, arg, form in zip(letters, args, moved):
                if letter.isupper():
                    arg[...] = form
            return result

        return entry


def _in_arenas(arenas):
    """A form that copies each array into a fresh engine ``ShmArena``,
    kept in ``arenas`` for the caller to close."""
    def form(array, written):
        arena = ShmArena.create({"a": (array.shape, array.dtype)})
        arenas.append(arena)
        arena["a"][...] = array
        return arena["a"]

    return form


def _emptied(stem, args, a):
    """``stem``'s smoke ``args`` (taken from inputs ``a``) with no work
    in them: a stored list's partners, and every array of their length,
    empty and its offsets zero; a build given no partners room; else
    every array of the length the row's first ``#`` reports empty."""
    def empty_all_of(length):
        return [
            arg[:0] if isinstance(arg, np.ndarray) and len(arg) == length else arg
            for arg in args
        ]

    def position(name):
        return next((k for k, arg in enumerate(args) if arg is getattr(a, name, None)), None)

    if position("pj") is not None:
        empty = empty_all_of(len(a.pj))
        empty[position("offsets")] = np.zeros_like(a.offsets)
        return empty
    if position("out") is not None:
        return [a.out[:0] if arg is a.out else arg for arg in args]
    return empty_all_of(len(args[_cc_impl.KERNELS[stem][2].split().index("#") - 1]))


@needs_compiled
class TestRawPointerBinding:
    """The entry hands C raw pointers: every argument form the row's
    letters allow runs, bit for bit as the plain call, and nothing the
    binding makes outlives the call."""

    @pytest.mark.parametrize(
        "form", [_as_is, _read_only, _from_bytes, _past_first, _prefix],
        ids=["as-is", "read-only", "frombuffer", "offset-view", "prefix-view"],
    )
    @pytest.mark.parametrize(
        "stem, val, acc",
        _TABLE_INSTANCES,
        ids=[_cc_impl.symbol(*instance) for instance in _TABLE_INSTANCES],
    )
    def test_every_array_form_runs_bitwise_the_plain_call(self, stem, val, acc, form):
        provider, _ = resolve_provider()
        case, plain = _smoke_inputs(stem, val, acc)
        _, formed = _smoke_inputs(stem, val, acc)
        want = case.call(provider, plain)
        got = case.call(_Forms(provider, stem, form), formed)
        assert compiled_module._agree(got, want)

    @pytest.mark.parametrize(
        "stem, val, acc",
        _TABLE_INSTANCES,
        ids=[_cc_impl.symbol(*instance) for instance in _TABLE_INSTANCES],
    )
    def test_arena_arrays_run_and_the_arena_still_unlinks(self, stem, val, acc):
        """Arrays in the engine's shared memory run bitwise as the plain
        call, and every arena still closes and unlinks its segment
        afterwards."""
        provider, _ = resolve_provider()
        case, plain = _smoke_inputs(stem, val, acc)
        _, formed = _smoke_inputs(stem, val, acc)
        arenas = []
        try:
            got = case.call(_Forms(provider, stem, _in_arenas(arenas)), formed)
        finally:
            specs = [arena.specs for arena in arenas]
            for arena in arenas:
                arena.close()
        assert compiled_module._agree(got, case.call(provider, plain))
        for spec in specs:
            with pytest.raises(FileNotFoundError):
                ShmArena.attach(spec)

    @pytest.mark.parametrize(
        "stem, val, acc",
        _TABLE_INSTANCES,
        ids=[_cc_impl.symbol(*instance) for instance in _TABLE_INSTANCES],
    )
    def test_zero_length_arrays_run_and_add_nothing(self, stem, val, acc):
        """Empty arrays (handed to C by address: the buffer protocol
        refuses them) are accepted; a build with no room reports its
        true count and rows, anything else finds no work and writes
        nothing but zeros."""
        provider, _ = resolve_provider()
        entry = getattr(provider, stem)
        letters, args, a = _smoke_call(provider, stem, val, acc)
        empty = _emptied(stem, args, a)
        assert any(
            isinstance(arg, np.ndarray) and arg.size == 0 for arg in empty
        ), "no array emptied"
        if getattr(a, "out", None) is not None:
            count, offsets = entry(*args), args[-1].copy()
            assert entry(*empty) == count
            assert _same_bits(empty[-1], offsets)
            return
        before = [np.array(arg, copy=True) for arg in empty]
        result = entry(*empty)
        assert result is not DECLINED and not result
        for letter, arg, was in zip(letters, empty, before):
            if letter.isupper():
                assert _same_bits(arg, was) or not arg.any()

    @pytest.mark.parametrize("stem", list(_cc_impl.KERNELS))
    def test_a_wrong_argument_count_raises(self, stem):
        provider, _ = resolve_provider()
        entry = getattr(provider, stem)
        instance = next(iter(_cc_impl.KERNELS[stem][0]))
        _, args = _smoke_arguments(provider, stem, *instance)
        for wrong in (args[:-1], [*args, args[-1]], []):
            with pytest.raises(TypeError, match=f"{stem} takes {len(args)} arguments"):
                entry(*wrong)

    def test_a_swapped_instance_is_the_one_run(self):
        """Each entry looks its instance up on every call and hands it
        the row's arguments with the ``#`` lengths in place."""
        provider, _ = resolve_provider()
        for stem, val, acc in _TABLE_INSTANCES:
            _, args = _smoke_arguments(provider, stem, val, acc)
            rest, want = iter(args), []
            for letter in _cc_impl.KERNELS[stem][2].split():
                want.append(len(want[-1]) if letter == "#" else next(rest))
            with pytest.MonkeyPatch.context() as patch:
                patch.setitem(provider.bound, (stem, val, acc), lambda *c: c)
                called = getattr(provider, stem)(*args)
            assert len(called) == len(want), stem
            assert all(c is w or c == w for c, w in zip(called, want)), stem
            assert getattr(provider, stem)(*args) is not DECLINED


# ---------------------------------------------------------------------------
# Fused lj/cut force pass vs the unfused compiled path, bit for bit
# ---------------------------------------------------------------------------
_LJ_BLOCK = _cc_impl.LJ_BLOCK


class _UnfusedCompiled(CompiledBackend):
    """The compiled backend as it ran before the fused pass existed:
    the hook declines, both drivers run the potential's body."""

    pair_forces = KernelBackend.pair_forces


def _hook(backend, potential, system, nlist):
    """What the one hook answers for ``potential`` over a stored list:
    ``(energy, virial, interactions)`` as its view accumulated them, or
    ``None``."""
    rows = StoredRows(system, nlist, backend)
    count = backend.pair_forces(potential, rows)
    return None if count is None else (rows.energy, rows.virial, count)


def _owner_pass(potentials, lists, positions, box, backend, types):
    """One engine-worker force pass; returns ``(rows, interactions)``."""
    rows = OwnerRows(
        lists, positions, box.lengths, box.periodic, backend,
        {"types": types[lists.index.gids], "charges": None}, len(types),
    )
    return rows, [potential.evaluate(rows) for potential in potentials]


def _same_bits(a, b) -> bool:
    """Bitwise equality (``np.array_equal`` lets ``-0.0 == 0.0`` pass)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _same_rows(a, b) -> bool:
    """The same CSR rows, offsets and partners bit for bit."""
    return _same_bits(a.offsets, b.offsets) and _same_bits(a.partners, b.partners)


@st.composite
def _lj_configurations(draw):
    """LJ systems that exercise every branch of the fused kernels:
    non-cubic boxes under any periodicity mask, 1-3 atom types with
    mixed tables, shift on/off, cell-list / brute-force / exclusion-
    filtered lists, atoms without partners (sparse boxes), atoms moved
    and unwrapped after the build, and pre-loaded force arrays."""
    rc = draw(st.floats(1.0, 1.8))
    skin = 0.25
    periodic = draw(st.tuples(st.booleans(), st.booleans(), st.booleans()))
    lengths = np.array(
        [draw(st.floats(2.05, 5.0)) * (rc + skin) for _ in range(3)]
    )
    origin = np.array([draw(st.floats(-3.0, 3.0)) for _ in range(3)])
    box = Box(lengths, periodic=periodic, origin=origin)
    n = draw(st.integers(2, 140))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    positions = origin + rng.uniform(0.0, 1.0, (n, 3)) * lengths
    n_types = draw(st.integers(1, 3))
    potential = LennardJonesCut(
        rng.uniform(0.5, 1.5, n_types),
        rng.uniform(0.8, 1.1, n_types),
        cutoff=rc,
        shift=draw(st.booleans()),
        mix_style=draw(st.sampled_from(["arithmetic", "geometric", "sixthpower"])),
    )
    system = AtomSystem(positions, box, types=rng.integers(0, n_types, n))
    exclusions = None
    if draw(st.booleans()):
        chosen = rng.integers(0, n, (max(1, n // 3), 2))
        exclusions = chosen[chosen[:, 0] != chosen[:, 1]]
    brute_force = draw(st.booleans())
    # Moves applied after the list is built: a jitter inside the skin
    # and whole-box hops on periodic axes (unwrapped atoms).
    hops = rng.integers(-2, 3, (n, 3)) * (rng.random((n, 3)) < 0.1)
    moved = (
        positions
        + rng.normal(scale=0.04, size=(n, 3))
        + hops * lengths * np.asarray(periodic)
    )
    preload = rng.normal(size=(n, 3)) * draw(st.sampled_from([0.0, 1.0]))
    return system, potential, skin, exclusions, brute_force, moved, preload


def _one_domain(
    system, list_cutoff, exclusions, worker, grid, *,
    owned_only=True, kernels=None, halo_width=None,
):
    """The directed rows engine worker ``worker`` of ``grid`` builds."""
    box = system.box
    wrapped = box.wrap(system.positions)
    index = LocalIndex.build(
        wrapped, box.origin, box.lengths, box.periodic, grid, worker,
        list_cutoff if halo_width is None else halo_width,
    )
    n = system.n_atoms
    keys = None
    if exclusions is not None and len(exclusions):
        lo, hi = np.sort(exclusions, axis=1).T
        keys = np.unique(lo * np.int64(n) + hi)
    return DomainLists.build(
        index,
        index.local_positions(wrapped, box.lengths),
        list_cutoff,
        excluded_keys=keys,
        n_atoms_total=n,
        owned_only=owned_only,
        kernels=kernels,
    )


@needs_compiled
class TestFusedLennardJones:
    @given(config=_lj_configurations())
    @settings(max_examples=150, deadline=None)
    def test_half_list_pass_is_bitwise_the_unfused_path(self, config):
        system, potential, skin, exclusions, brute_force, moved, preload = config
        nlist = NeighborList(potential.cutoff, skin, exclusions=exclusions)
        with brute_force_up_to(10**6 if brute_force else 0):
            nlist.build(system)
        system.positions[...] = moved

        system.forces[...] = preload
        potential.backend = _UnfusedCompiled()
        expected = potential.compute(system, nlist)
        expected_forces = system.forces.copy()

        system.forces[...] = preload
        fused = _hook(CompiledBackend(), potential, system, nlist)
        assert fused is not None, "the fused kernel declined a float64 LJ case"
        energy, virial, interactions = fused
        assert interactions == expected.interactions
        assert _same_bits(energy, expected.energy)
        assert _same_bits(virial, expected.virial)
        assert _same_bits(system.forces, expected_forces)

    @pytest.mark.parametrize("n_types", [1, 2])
    @pytest.mark.parametrize(
        "m",
        [0, 1, _LJ_BLOCK - 1, _LJ_BLOCK, _LJ_BLOCK + 1, 3 * _LJ_BLOCK + 5],
    )
    def test_half_list_pass_is_bitwise_the_unfused_path_block_by_block(
        self, m, n_types
    ):
        """``lj_half`` takes the list in blocks of ``LJ_BLOCK`` stored
        pairs: lists empty, shorter than a block, one block, a block and
        one pair, and three blocks and a partial fourth whose second
        block holds only pairs outside the cutoff, are each bitwise the
        unfused path, one- and two-type tables alike."""
        rng = np.random.default_rng(11)
        system = lj_melt_system(400, seed=7)
        system.types[:] = rng.integers(0, n_types, system.n_atoms)
        potential = LennardJonesCut(
            [1.0, 0.7][:n_types], [1.0, 1.15][:n_types], cutoff=2.5
        )
        nlist = NeighborList(potential.cutoff, 0.8)
        nlist.build(system)
        heads, partners = nlist.pair_i, nlist.csr_neighbors
        dr = system.box.minimum_image(
            system.positions[heads] - system.positions[partners]
        )
        far = np.flatnonzero(np.einsum("ij,ij->i", dr, dr) >= potential.cutoff**2)
        block = _LJ_BLOCK
        rows = np.arange(m)
        if m > 2 * block:
            # Each part stored after the one before: the kept pairs stay
            # row-major, and rows straddle the block boundaries.
            far = far[far >= block][:block]
            rest = far[-1] + 1 + np.arange(m - 2 * block)
            rows = np.concatenate([rows[:block], far, rest])
        assert len(rows) == m
        nlist.csr_offsets = np.searchsorted(heads[rows], np.arange(system.n_atoms + 1))
        nlist.csr_neighbors = partners[rows]

        preload = rng.normal(size=system.forces.shape)
        system.forces[...] = preload
        potential.backend = _UnfusedCompiled()
        expected = potential.compute(system, nlist)
        expected_forces = system.forces.copy()

        system.forces[...] = preload
        fused = _hook(CompiledBackend(), potential, system, nlist)
        assert fused is not None
        energy, virial, interactions = fused
        assert interactions == expected.interactions
        assert _same_bits(energy, expected.energy)
        assert _same_bits(virial, expected.virial)
        assert _same_bits(system.forces, expected_forces)

    @given(config=_lj_configurations(), workers=st.sampled_from([1, 2]))
    @settings(max_examples=100, deadline=None)
    def test_directed_row_pass_is_bitwise_the_unfused_path(self, config, workers):
        system, potential, skin, exclusions, _, moved, _ = config
        list_cutoff = potential.cutoff + skin
        lists = _one_domain(system, list_cutoff, exclusions, 0, (workers, 1, 1))
        # A second potential sees the first one's totals already in the
        # per-atom outputs: the pre-loaded case of the directed kernel.
        second = LennardJonesCut(
            0.5 * (potential.eps_table.diagonal() + 1.0),
            potential.sigma_table.diagonal(),
            cutoff=0.8 * potential.cutoff,
            shift=not potential.shift,
        )
        (expected, expected_counts), (fused, fused_counts) = (
            _owner_pass(
                [potential, second], lists, moved, system.box, backend, system.types
            )
            for backend in (_UnfusedCompiled(), CompiledBackend())
        )
        assert fused_counts == expected_counts
        assert _same_bits(fused.forces, expected.forces)
        assert _same_bits(fused.energy, expected.energy)
        assert _same_bits(fused.virial, expected.virial)

    def test_directed_rows_skip_the_shared_geometry(self, monkeypatch):
        """With every potential fused, a worker's step never builds the
        per-row ``dr``/``r2`` arrays."""
        system = lj_melt_system(500, seed=3)
        lists = _one_domain(system, 2.8, None, 0, (2, 1, 1))
        monkeypatch.setattr(
            DomainLists,
            "geometry",
            lambda *a, **k: pytest.fail("geometry built for a fused domain"),
        )
        _, counts = _owner_pass(
            [LennardJonesCut(cutoff=2.5)], lists, system.positions, system.box,
            CompiledBackend(), system.types,
        )
        assert counts[0] > 0

    def test_a_fused_worker_pass_derives_no_heads_or_global_ids(self):
        """A worker's CSR rows reach ``lj_rows`` as they are: after a
        fused LJ pass no per-row head or global-id array exists; a numpy
        body (EAM's, which the hook declines) derives them on its read."""
        derived = ("heads", "global_rows", "gid_order")
        system = lj_melt_system(500, seed=3)
        lists = _one_domain(system, 2.8, None, 0, (2, 1, 1))
        _, counts = _owner_pass(
            [LennardJonesCut(cutoff=2.5)], lists, system.positions, system.box,
            CompiledBackend(), system.types,
        )
        assert counts[0] > 0 and not set(derived) & set(vars(lists))
        solid = eam_solid_system(500, seed=3)
        lists = _one_domain(
            solid, 5.45, None, 0, (2, 1, 1), owned_only=False,
            halo_width=EAMAlloy().halo_width(5.45),
        )
        _owner_pass(
            [EAMAlloy()], lists, solid.positions, solid.box, CompiledBackend(),
            solid.types,
        )
        assert {"heads", "global_rows"} <= set(vars(lists))

    def test_compute_takes_the_fused_route_and_keeps_tail_terms(self, monkeypatch):
        system = lj_melt_system(500, seed=5)
        nlist = NeighborList(2.5, 0.3)
        nlist.build(system)
        results = []
        for backend in (_UnfusedCompiled(), CompiledBackend()):
            calls = []
            native = backend._impl.lj_half

            def counted(*args, native=native, calls=calls):
                calls.append(1)
                return native(*args)

            monkeypatch.setattr(backend._impl, "lj_half", counted)
            potential = LennardJonesCut(cutoff=2.5, tail_correction=True)
            potential.backend = backend
            system.forces[...] = 0.0
            results.append((potential.compute(system, nlist), len(calls)))
        (expected, unfused_calls), (got, fused_calls) = results
        assert (unfused_calls, fused_calls) == (0, 1)
        assert got == expected

    @pytest.mark.parametrize("mode", ["single", "mixed"])
    def test_reduced_precision_stays_on_the_unfused_path(self, mode):
        system = lj_melt_system(256, seed=5)
        nlist = NeighborList(2.5, 0.3)
        nlist.build(system)
        backend = CompiledBackend()
        backend.set_policy(policy_for(mode))
        potential = LennardJonesCut(cutoff=2.5)
        assert _hook(backend, potential, system, nlist) is None
        assert np.all(system.forces == 0.0)

    def test_declines_what_the_kernels_cannot_index(self):
        """Out-of-table atom types, foreign dtypes and strided arrays
        are left to the numpy path (which raises or copies as before);
        nothing is written when the hook declines."""
        system = lj_melt_system(256, seed=5)
        nlist = NeighborList(2.5, 0.3)
        nlist.build(system)
        backend = CompiledBackend()
        two_types = LennardJonesCut([1.0, 0.8], [1.0, 0.9], cutoff=2.5)
        system.types[7] = 2
        assert _hook(backend, two_types, system, nlist) is None
        system.types[7] = -1
        assert _hook(backend, two_types, system, nlist) is None
        system.types[7] = 0
        one_type = LennardJonesCut(cutoff=2.5)
        strided = AtomSystem(system.positions.copy(), system.box)
        strided.forces = np.zeros((256 * 2, 3))[::2][: system.n_atoms]
        assert _hook(backend, one_type, strided, nlist) is None
        assert np.all(strided.forces == 0.0)
        # A closed form no route covers, and none at all.
        for closed_form in ("morse", None):
            one_type.closed_form = closed_form
            assert _hook(backend, one_type, system, nlist) is None
        del one_type.closed_form
        with pytest.raises(RuntimeError, match="never been built"):
            _hook(backend, one_type, system, NeighborList(2.5, 0.3))

    def test_smoke_test_demotes_a_provider_whose_fused_pass_drifts(self):
        """An ulp off in ``lj_half``'s forces, or ``lj_rows`` handed its
        rows in reverse, and the provider is refused."""
        _assert_demoted("lj_half", _after(_nudging(-3, 0)))
        _assert_demoted("lj_rows", _reversed_rows_input)


# ---------------------------------------------------------------------------
# Fused eam/alloy pass vs the numpy body, bit for bit (numpy keeps exp)
# ---------------------------------------------------------------------------
class _MustFuse(CompiledBackend):
    """The compiled backend with its fused hook *required* to engage,
    so agreement with the unfused route cannot come from declining."""

    def pair_forces(self, potential, rows):
        fused = super().pair_forces(potential, rows)
        assert fused is not None, "the fused kernel declined"
        return fused


@st.composite
def _eam_configurations(draw):
    """EAM systems that reach every branch of the fused sweeps:
    non-cubic boxes under any periodicity mask, cutoffs from a third
    shell down to a first, crowded and sparse atom sets (atoms without
    partners), cell-list and brute-force lists, atoms moved and
    unwrapped after the build, and pre-loaded force arrays."""
    params = EAMParameters(cutoff=draw(st.floats(3.0, 4.95)))
    skin = 0.5
    periodic = draw(st.tuples(st.booleans(), st.booleans(), st.booleans()))
    lengths = np.array(
        [draw(st.floats(2.05, 3.5)) * (params.cutoff + skin) for _ in range(3)]
    )
    origin = np.array([draw(st.floats(-3.0, 3.0)) for _ in range(3)])
    box = Box(lengths, periodic=periodic, origin=origin)
    n = draw(st.integers(2, 160))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    positions = origin + rng.uniform(0.0, 1.0, (n, 3)) * lengths
    brute_force = draw(st.booleans())
    hops = rng.integers(-2, 3, (n, 3)) * (rng.random((n, 3)) < 0.1)
    moved = (
        positions
        + rng.normal(scale=0.1, size=(n, 3))
        + hops * lengths * np.asarray(periodic)
    )
    preload = rng.normal(size=(n, 3)) * draw(st.sampled_from([0.0, 1.0]))
    system = AtomSystem(positions, box)
    return system, EAMAlloy(params), skin, brute_force, moved, preload


def _body_and_fused(potential, system, nlist, preload):
    """``((result, forces) of the body, (result, forces) fused)`` on
    the compiled backend, each from ``preload``."""
    out = []
    for backend in (_UnfusedCompiled(), _MustFuse()):
        potential.backend = backend
        system.forces[...] = preload
        out.append((potential.compute(system, nlist), system.forces.copy()))
    return out


def _assert_same_pass(body, fused):
    (expected, expected_forces), (got, got_forces) = body, fused
    assert got.interactions == expected.interactions
    assert _same_bits(got.energy, expected.energy)
    assert _same_bits(got.virial, expected.virial)
    assert _same_bits(got_forces, expected_forces)


@needs_compiled
class TestFusedEAM:
    @given(config=_eam_configurations())
    @settings(max_examples=120, deadline=None)
    def test_half_list_pass_is_bitwise_the_numpy_body(self, config):
        system, potential, skin, brute_force, moved, preload = config
        nlist = NeighborList(potential.cutoff, skin)
        with brute_force_up_to(10**6 if brute_force else 0):
            nlist.build(system)
        system.positions[...] = moved
        _assert_same_pass(*_body_and_fused(potential, system, nlist, preload))

    def test_solid_pass_is_bitwise_and_calls_each_sweep_once(self, monkeypatch):
        system = eam_solid_system(500, seed=3)
        system.positions += np.random.default_rng(4).normal(
            scale=0.05, size=system.positions.shape
        )
        nlist = NeighborList(4.95, 1.0)
        nlist.build(system)
        calls = []
        backend = _MustFuse()
        for stem in ("eam_geom", "eam_density", "eam_forces", "pair_geom"):
            native = getattr(backend._impl, stem)

            def counted(*args, native=native, stem=stem):
                calls.append(stem)
                return native(*args)

            monkeypatch.setattr(backend._impl, stem, counted)
        potential = EAMAlloy()
        potential.backend = backend
        system.forces[...] = 0.0
        fused = potential.compute(system, nlist), system.forces.copy()
        assert calls == ["eam_geom", "eam_density", "eam_forces"]
        body = _body_and_fused(potential, system, nlist, 0.0)[0]
        _assert_same_pass(body, fused)
        assert fused[0].interactions > 10 * system.n_atoms

    @pytest.mark.parametrize("stored", ["some", "none"])
    def test_no_pair_inside_the_cutoff_is_an_exact_zero(self, stored):
        """Stored pairs (inside the skin) but none inside the cutoff, or
        no stored pair at all: no embedding term, nothing written."""
        box = Box([30.0] * 3, periodic=(False,) * 3)
        gap = 5.2 if stored == "some" else 8.0
        system = AtomSystem([[5.0, 5.0, 5.0], [5.0 + gap, 5.0, 5.0]], box)
        nlist = NeighborList(4.95, 0.5)
        nlist.build(system)
        assert len(nlist.pair_i) == (1 if stored == "some" else 0)
        preload = np.arange(6.0).reshape(2, 3) - 2.0
        body, fused = _body_and_fused(EAMAlloy(), system, nlist, preload)
        _assert_same_pass(body, fused)
        result, forces = fused
        assert (result.energy, result.virial, result.interactions) == (0.0, 0.0, 0)
        assert _same_bits(forces, preload)

    def test_scratch_is_reused_and_grows(self):
        backend = _MustFuse()
        potential = EAMAlloy()
        potential.backend = backend
        sizes = []
        for n in (256, 256, 500):
            system = eam_solid_system(n, seed=2)
            nlist = NeighborList(4.95, 1.0)
            nlist.build(system)
            potential.compute(system, nlist)
            sizes.append((backend._buffers["pair.exp", F64], len(nlist.pair_i)))
        (first, m_small), (second, _), (third, m_large) = sizes
        assert second is first and first.shape[1] == 3 and len(first) >= m_small
        assert len(third) >= m_large > len(first)

    @pytest.mark.parametrize("mode", ["single", "mixed"])
    def test_reduced_precision_declines_and_the_native_scatter_engages(
        self, mode, monkeypatch
    ):
        """SINGLE/MIXED run the body — whose radial functions now stay
        in the compute dtype, so its force scatter is the native one."""
        system = eam_solid_system(256, seed=5)
        nlist = NeighborList(4.95, 1.0)
        nlist.build(system)
        backend = CompiledBackend()
        backend.set_policy(policy_for(mode))
        assert _hook(backend, EAMAlloy(), system, nlist) is None
        assert np.all(system.forces == 0.0)

        calls = []
        native = backend._impl.acc_scaled

        def counted(forces, i, j, dr, f_over_r):
            calls.append((dr.dtype, f_over_r.dtype, forces.dtype))
            return native(forces, i, j, dr, f_over_r)

        monkeypatch.setattr(backend._impl, "acc_scaled", counted)
        sim = Simulation(eam_solid_system(256, seed=5), [EAMAlloy()])
        sim.set_backend(backend)
        sim.set_precision(mode)
        sim.setup()
        policy = policy_for(mode)
        compute, accumulate = policy.compute_dtype, policy.accumulate_dtype
        assert calls == [(compute, compute, accumulate)]

    def test_engine_rows_decline(self):
        """An engine worker's rows run the body on every backend."""
        system = eam_solid_system(500, seed=3)
        potential = EAMAlloy()
        lists = _one_domain(
            system, 5.45, None, 0, (2, 1, 1), owned_only=False,
            halo_width=potential.halo_width(5.45),
        )
        rows = OwnerRows(
            lists, system.positions, system.box.lengths, system.box.periodic,
            CompiledBackend(), {"types": system.types[lists.index.gids]},
            system.n_atoms,
        )
        assert CompiledBackend().pair_forces(potential, rows) is None
        assert np.all(rows.forces == 0.0)

    def test_smoke_test_demotes_a_provider_whose_sweep_drifts(self):
        """An ulp off in an ``exp`` argument of ``eam_geom``, in ``rho``
        from ``eam_density`` or in a pair virial of ``eam_forces``, and
        the provider is refused."""
        for stem in ("eam_geom", "eam_density", "eam_forces"):
            _assert_demoted(stem, _after(_nudging(-1, 0)))


# ---------------------------------------------------------------------------
# Fused lj/charmm/coul/long pass vs the numpy body, bit for bit (scipy keeps
# erfc, numpy keeps exp)
# ---------------------------------------------------------------------------
@st.composite
def _charmm_configurations(draw):
    """CHARMM systems that reach every branch of the terms kernel: one
    to three atom types, pairs below, inside and beyond the switch and
    on both sides of a Coulomb cutoff at or inside the LJ one, plain cut
    Coulomb and Ewald screening, non-cubic boxes under any periodicity
    mask, cell-list and brute-force lists, atoms moved and unwrapped
    after the build, and pre-loaded force arrays."""
    cutoff = draw(st.floats(2.0, 3.0))
    lj_inner = draw(st.floats(0.0, 0.95)) * cutoff
    coul_cutoff = draw(st.sampled_from([1.0, 0.8])) * cutoff
    n_types = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    potential = CharmmCoulLong(
        rng.uniform(0.05, 0.3, n_types),
        rng.uniform(0.8, 1.3, n_types),
        lj_inner=lj_inner,
        cutoff=cutoff,
        coul_cutoff=coul_cutoff,
        alpha=draw(st.sampled_from([0.0, 0.4, 1.1])),
        coulomb_constant=draw(st.sampled_from([1.0, 332.06371])),
    )
    skin = 0.4
    periodic = draw(st.tuples(st.booleans(), st.booleans(), st.booleans()))
    lengths = np.array(
        [draw(st.floats(2.05, 3.5)) * (cutoff + skin) for _ in range(3)]
    )
    origin = np.array([draw(st.floats(-3.0, 3.0)) for _ in range(3)])
    box = Box(lengths, periodic=periodic, origin=origin)
    n = draw(st.integers(2, 160))
    positions = origin + rng.uniform(0.0, 1.0, (n, 3)) * lengths
    hops = rng.integers(-2, 3, (n, 3)) * (rng.random((n, 3)) < 0.1)
    moved = (
        positions
        + rng.normal(scale=0.1, size=(n, 3))
        + hops * lengths * np.asarray(periodic)
    )
    preload = rng.normal(size=(n, 3)) * draw(st.sampled_from([0.0, 1.0]))
    system = AtomSystem(
        positions, box, types=rng.integers(0, n_types, n), charges=rng.normal(size=n)
    )
    brute_force = draw(st.booleans())
    return system, potential, skin, brute_force, moved, preload


def _rhodo_pass(n_atoms=400):
    """``(system, neighbors, potential)`` of a built rhodo proxy: several
    atom types, real charges, exclusions, PPPM's alpha."""
    from repro.suite import get_benchmark

    sim = get_benchmark("rhodo").build(n_atoms)
    sim.set_backend(_UnfusedCompiled())
    sim.setup()
    (potential,) = sim.potentials
    return sim.system, sim.neighbor, potential


@needs_compiled
class TestFusedCharmm:
    @given(config=_charmm_configurations())
    @settings(max_examples=120, deadline=None)
    def test_half_list_pass_is_bitwise_the_numpy_body(self, config):
        system, potential, skin, brute_force, moved, preload = config
        assert potential.closed_form == "lj/charmm/coul/long"
        nlist = NeighborList(potential.cutoff, skin)
        with brute_force_up_to(10**6 if brute_force else 0):
            nlist.build(system)
        system.positions[...] = moved
        _assert_same_pass(*_body_and_fused(potential, system, nlist, preload))

    def test_rhodo_pass_is_bitwise_and_calls_each_kernel_once(self, monkeypatch):
        system, nlist, potential = _rhodo_pass()
        assert potential.needs_types and potential.alpha > 0.0
        calls = []
        backend = _MustFuse()
        for stem in ("pair_geom", "charmm_terms", "acc_scaled", "scatter1"):
            native = getattr(backend._impl, stem)

            def counted(*args, native=native, stem=stem):
                calls.append(stem)
                return native(*args)

            monkeypatch.setattr(backend._impl, stem, counted)
        potential.backend = backend
        system.forces[...] = 0.0
        fused = potential.compute(system, nlist), system.forces.copy()
        assert calls == ["pair_geom", "charmm_terms", "acc_scaled"]
        body = _body_and_fused(potential, system, nlist, 0.0)[0]
        _assert_same_pass(body, fused)
        assert fused[0].interactions > 10 * system.n_atoms

    @pytest.mark.parametrize("stored", ["some", "none"])
    def test_no_pair_inside_the_cutoff_is_an_exact_zero(self, stored):
        box = Box([30.0] * 3, periodic=(False,) * 3)
        gap = 2.6 if stored == "some" else 8.0
        system = AtomSystem(
            [[5.0, 5.0, 5.0], [5.0 + gap, 5.0, 5.0]], box, charges=[1.0, -1.0]
        )
        nlist = NeighborList(2.5, 0.5)
        nlist.build(system)
        assert len(nlist.pair_i) == (1 if stored == "some" else 0)
        preload = np.arange(6.0).reshape(2, 3) - 2.0
        potential = CharmmCoulLong(lj_inner=2.0, cutoff=2.5, alpha=0.5)
        assert potential.closed_form == "lj/charmm/coul/long"
        body, fused = _body_and_fused(potential, system, nlist, preload)
        _assert_same_pass(body, fused)
        result, forces = fused
        assert (result.energy, result.virial, result.interactions) == (0.0, 0.0, 0)
        assert _same_bits(forces, preload)

    @pytest.mark.parametrize("mode", ["single", "mixed"])
    def test_reduced_precision_declines(self, mode):
        system, nlist, potential = _rhodo_pass()
        system.forces[...] = 0.0
        backend = CompiledBackend()
        backend.set_policy(policy_for(mode))
        assert _hook(backend, potential, system, nlist) is None
        assert np.all(system.forces == 0.0)

    def test_declines_what_the_kernel_cannot_read(self):
        """Types the tables cannot be indexed by, and charges the kernel
        cannot read as they are, run the body (which then fails or not
        exactly as it always did)."""
        system, nlist, potential = _rhodo_pass()
        backend = CompiledBackend()
        system.forces[...] = 0.0
        good_types, good_charges = system.types, system.charges
        for name, value in (
            ("types", good_types + len(potential.eps_table)),
            ("types", good_types.astype(np.int32)),
            ("charges", good_charges.astype(np.float32)),
            ("charges", np.stack([good_charges] * 2, axis=1)[:, 0]),
        ):
            setattr(system, name, value)
            assert _hook(backend, potential, system, nlist) is None, name
            setattr(system, name, good_types if name == "types" else good_charges)
        assert np.all(system.forces == 0.0)
        assert _hook(backend, potential, system, nlist) is not None

    def test_full_lists_and_engine_rows_decline(self):
        system, _, potential = _rhodo_pass()
        full = NeighborList(potential.cutoff, 0.3, full=True)
        full.build(system)
        backend = CompiledBackend()
        system.forces[...] = 0.0
        assert _hook(backend, potential, system, full) is None
        lists = _one_domain(system, potential.cutoff + 0.3, None, 0, (2, 1, 1))
        rows = OwnerRows(
            lists, system.positions, system.box.lengths, system.box.periodic,
            backend,
            {
                "types": system.types[lists.index.gids],
                "charges": system.charges[lists.index.gids],
            },
            system.n_atoms,
        )
        assert backend.pair_forces(potential, rows) is None
        assert np.all(rows.forces == 0.0) and np.all(system.forces == 0.0)

    def test_smoke_test_demotes_a_provider_whose_kernels_drift(self):
        """An ulp off in one per-pair output of ``charmm_terms``, or one
        pair dropped by ``brute_csr``, and the provider is refused."""
        for k in (-2, -1):
            _assert_demoted("charmm_terms", _after(_nudging(k, 0, at=-1)))
        _assert_demoted("brute_csr", _after(_drop_last_pair))


# ---------------------------------------------------------------------------
# Fused Tersoff pass vs the numpy body (equivalent regime: libm is not numpy)
# ---------------------------------------------------------------------------
#: The tier ``tests/md/test_tersoff.py::TestBackendParity`` holds the
#: backends to, relative where the quantity is large.
_TIER = dict(rtol=1e-12, atol=1e-12)

#: A cutoff of 6 A: rows of ~57 stored partners, past the 32 slots of
#: row scratch a fresh backend starts with.
_WIDE = dict(R=5.8, D=0.2)


def _both_routes(potential, system, nlist, preload=0.0):
    """``((result, forces) unfused, (result, forces) fused)``."""
    out = []
    for backend in (_UnfusedCompiled(), _MustFuse()):
        potential.backend = backend
        system.forces[...] = preload
        out.append((potential.compute(system, nlist), system.forces.copy()))
    return out


def _assert_equivalent(unfused, fused):
    (expected, expected_forces), (got, got_forces) = unfused, fused
    assert got.interactions == expected.interactions
    np.testing.assert_allclose(got.energy, expected.energy, **_TIER)
    np.testing.assert_allclose(got.virial, expected.virial, **_TIER)
    np.testing.assert_allclose(got_forces, expected_forces, **_TIER)


@st.composite
def _tersoff_configurations(draw):
    """Silicon-like systems that reach every branch of the fused kernel:
    jittered diamond cells under any periodicity mask or loose clusters
    in an open box, ``m`` 1 or 3, ``lambda3`` on or off, the default or
    a widened cutoff, bonds inside the ramp (the jitter puts some
    there), atoms hopped whole box lengths after the build, pre-loaded
    forces."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    wide = draw(st.booleans())
    params = TersoffParameters(
        m=draw(st.sampled_from([1, 3])),
        lambda3=draw(st.sampled_from([0.0, 1.7322])),
        **(_WIDE if wide else {}),
    )
    if draw(st.booleans()):
        positions, cell = diamond_positions(3 if wide else 2, 5.431)
        positions = positions + rng.normal(scale=0.15, size=positions.shape)
        periodic = draw(st.tuples(st.booleans(), st.booleans(), st.booleans()))
        box = Box(cell.lengths, periodic=periodic)
    else:
        n = draw(st.integers(2, 40))
        positions = rng.uniform(0.0, 7.0, (n, 3))
        # No two atoms on top of each other: keep forces O(10) eV/A.
        positions = positions[
            [k for k in range(n) if k == 0 or np.min(
                np.linalg.norm(positions[:k] - positions[k], axis=1)) > 1.9]
        ]
        periodic = (False, False, False)
        box = Box(np.full(3, 30.0), periodic=periodic, origin=np.full(3, -10.0))
    n = len(positions)
    hops = rng.integers(-2, 3, (n, 3)) * (rng.random((n, 3)) < 0.1)
    moved = (
        positions
        + rng.normal(scale=0.02, size=(n, 3))
        + hops * box.lengths * np.asarray(periodic)
    )
    preload = rng.normal(size=(n, 3)) * draw(st.sampled_from([0.0, 1.0]))
    return AtomSystem(positions, box), Tersoff(params), moved, preload


def _silicon(seed, n_cells=2, scale=0.1):
    positions, box = diamond_positions(n_cells, 5.431)
    rng = np.random.default_rng(seed)
    return positions + rng.normal(scale=scale, size=positions.shape), box


def _fused_compute(positions, box, potential):
    system = AtomSystem(np.asarray(positions, dtype=float), box)
    nlist = NeighborList(potential.cutoff, 0.5, full=True)
    nlist.build(system)
    potential.backend = _MustFuse()
    return potential.compute(system, nlist), system


@needs_compiled
class TestFusedTersoff:
    @given(config=_tersoff_configurations())
    @settings(max_examples=60, deadline=None)
    def test_fused_pass_is_equivalent_to_the_numpy_body(self, config):
        system, potential, moved, preload = config
        nlist = NeighborList(potential.cutoff, 0.4, full=True)
        nlist.build(system)
        system.positions[...] = moved
        unfused, fused = _both_routes(potential, system, nlist, preload)
        _assert_equivalent(unfused, fused)
        # ... and bitwise itself on a rerun.
        again = _both_routes(potential, system, nlist, preload)[1]
        assert again[0] == fused[0]
        assert _same_bits(again[1], fused[1])

    @pytest.mark.parametrize("where", ["R - D", "R", "R + D"])
    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    def test_bonds_at_the_ramp_ends(self, where, ulps):
        """A bond exactly at, and one ulp either side of, each corner
        of ``fc``: below ``R - D`` no libm ramp, at ``R + D`` no bond."""
        p = TersoffParameters()
        r = {"R - D": p.R - p.D, "R": p.R, "R + D": p.R + p.D}[where]
        for _ in range(abs(ulps)):
            r = np.nextafter(r, np.inf * ulps)
        box = Box(np.full(3, 30.0), periodic=(False,) * 3, origin=np.full(3, -10.0))
        system = AtomSystem([[0, 0, 0], [r, 0, 0], [0.2, 2.3, 0.1]], box)
        nlist = NeighborList(p.cutoff, 0.5, full=True)
        nlist.build(system)
        unfused, fused = _both_routes(Tersoff(p), system, nlist)
        _assert_equivalent(unfused, fused)
        assert fused[0].interactions == (4 if r < p.cutoff else 2)

    def test_row_scratch_grows_to_the_longest_stored_row(self):
        positions, box = _silicon(5, n_cells=3)
        system = AtomSystem(positions, box)
        potential = Tersoff(TersoffParameters(**_WIDE))
        nlist = NeighborList(potential.cutoff, 0.5, full=True)
        nlist.build(system)
        longest = int(np.diff(nlist.csr_offsets).max())
        backend = _MustFuse()
        key = "tersoff.atoms", np.dtype(np.int64)
        assert key not in backend._buffers and longest > 32
        potential.backend = backend
        potential.compute(system, nlist)
        assert len(backend._buffers[key]) >= longest
        grown = backend._buffers[key]
        potential.compute(system, nlist)
        assert backend._buffers[key] is grown  # grow-only: reused as is

    @given(seed=st.integers(0, 10_000), m=st.sampled_from([1, 3]))
    @settings(max_examples=4, deadline=None)
    def test_forces_match_finite_difference_through_the_fused_route(self, seed, m):
        potential = Tersoff(TersoffParameters(m=m))
        positions, box = _silicon(seed, scale=0.12)
        _, system = _fused_compute(positions, box, potential)
        fd = finite_difference_forces(
            lambda x: _fused_compute(x, box, potential)[0].energy, positions
        )
        scale = max(np.abs(system.forces).max(), 1.0)
        np.testing.assert_allclose(system.forces, fd, atol=1e-4 * scale)

    def test_virial_matches_scaling_derivative_through_the_fused_route(self):
        potential = Tersoff()
        positions, box = _silicon(7)

        def at_scale(lam):
            return _fused_compute(positions * lam, Box(box.lengths * lam), potential)[0]

        h = 1e-6
        fd = (at_scale(1 + h).energy - at_scale(1 - h).energy) / (2 * h)
        assert at_scale(1.0).virial == pytest.approx(-fd, rel=1e-6)

    def test_newtons_third_law(self):
        positions, box = _silicon(11, scale=0.2)
        _, system = _fused_compute(positions, box, Tersoff())
        assert np.abs(system.forces).max() > 1.0
        assert np.abs(system.forces.sum(axis=0)).max() < 1e-12

    def test_the_route_is_decided_before_anything_is_written(self):
        """Every decline is a property of the configuration — policy,
        ``m``, dtypes, layout, list kind — and leaves ``forces`` alone."""
        positions, box = _silicon(3)
        system = AtomSystem(positions, box)
        full = NeighborList(3.0, 0.5, full=True)
        full.build(system)
        half = NeighborList(3.0, 0.5)
        half.build(system)
        potential = Tersoff()
        backend = CompiledBackend()
        assert _hook(backend, potential, system, full) is not None

        def declined(potential=potential, system=system, nlist=full, mode="double"):
            backend = CompiledBackend()
            backend.set_policy(policy_for(mode))
            before = system.forces.copy()
            answer = _hook(backend, potential, system, nlist)
            return answer is None and _same_bits(system.forces, before)

        assert declined(mode="single")
        assert declined(mode="mixed")
        assert declined(potential=Tersoff(TersoffParameters(m=2)))
        assert declined(nlist=half)
        single = AtomSystem(positions, box, dtype=np.float32)
        assert declined(system=single)
        strided = AtomSystem(positions, box)
        strided.positions = np.repeat(positions, 2, axis=0)[::2]
        assert not strided.positions.flags.c_contiguous
        assert declined(system=strided)
        # ... and Tersoff.compute then lands on the numpy body.
        potential = Tersoff(TersoffParameters(m=2))
        potential.backend = CompiledBackend()
        reference = Tersoff(TersoffParameters(m=2))
        reference.backend = "numpy_fast"
        results = []
        for pot in (potential, reference):
            system.forces[...] = 0.0
            results.append((pot.compute(system, full), system.forces.copy()))
        _assert_equivalent(*results)

    def test_smoke_case_holds_an_empty_row_and_a_ramp_bond(self):
        case = compiled_module._SMOKE_CASES["tersoff_full"]
        inputs = case.inputs(np.random.default_rng(1234), policy_for("double"))
        system, nlist = inputs.system, inputs.neighbors
        assert system.n_atoms <= 64 and not system.box.periodic.all()
        assert np.abs(inputs.forces).min() > 0.0  # pre-loaded
        assert (np.diff(nlist.csr_offsets) == 0).sum() == 1
        _, _, _, r = NumpyFastBackend().current_pairs(system, nlist, 3.0)
        p = TersoffParameters()
        assert np.any(np.abs(r - p.R) < 0.5 * p.D)

    def test_smoke_test_demotes_a_provider_whose_fused_pass_drifts(self):
        """A force past the tolerance, or a total that differs between
        two calls on the same input, and the provider is refused."""
        _assert_demoted("tersoff_full", _after(_past_the_tier))
        _assert_demoted("tersoff_full", _not_repeatable())

    def test_the_c_parameter_enum_lists_the_fields_in_order(self):
        """The one positional contract left between the potential and
        the C unit: ``tersoff_full`` reads its parameter vector by the
        ``TS_*`` enum, which names the ``TersoffParameters`` fields in
        declaration order (``R`` and ``D`` spelled ``BIGR`` / ``BIGD``,
        apart from ``d``)."""
        (body,) = re.findall(r"enum \{([^}]*\bTS_A\b[^}]*)\}", _cc_impl._SOURCE)
        names = [name.strip() for name in body.split(",")]
        spelled = {"R": "BIGR", "D": "BIGD"}
        assert names == [
            "TS_" + spelled.get(field.name, field.name.upper())
            for field in fields(TersoffParameters)
        ]


# ---------------------------------------------------------------------------
# Parameters edited on a live potential reach its fused route
# ---------------------------------------------------------------------------
@needs_compiled
class TestEditedParameters:
    """A route reads the potential's own attributes on every pass, so an
    edit made after construction reaches it: the edited pass moves, and
    stays bitwise the body that reads the same edit."""

    @staticmethod
    def _edited(potential, system, nlist, edit):
        before = _body_and_fused(potential, system, nlist, 0.0)[1][0]
        edit(potential)
        body, fused = _body_and_fused(potential, system, nlist, 0.0)
        _assert_same_pass(body, fused)
        assert fused[0].energy != before.energy

    def test_lj_table_entry(self):
        system = lj_melt_system(256, seed=5)
        system.types[:] = np.arange(system.n_atoms) % 2
        nlist = NeighborList(2.5, 0.3)
        nlist.build(system)
        potential = LennardJonesCut([1.0, 0.8], [1.0, 0.9], cutoff=2.5)

        def edit(potential):
            potential.eps_table[0, 1] = 1.7

        self._edited(potential, system, nlist, edit)

    def test_eam_parameters_replaced(self):
        system = eam_solid_system(256, seed=5)
        nlist = NeighborList(4.95, 1.0)
        nlist.build(system)

        def edit(potential):
            potential.params = replace(potential.params, chi=2.5, E_c=3.9)

        self._edited(EAMAlloy(), system, nlist, edit)

    def test_charmm_alpha_set_to_zero(self):
        system, nlist, potential = _rhodo_pass()
        assert potential.alpha > 0.0

        def edit(potential):
            potential.alpha = 0.0

        self._edited(potential, system, nlist, edit)

    def test_tersoff_m_set_to_two_declines_without_writing(self):
        system = AtomSystem(*_silicon(3))
        full = NeighborList(3.0, 0.5, full=True)
        full.build(system)
        potential = Tersoff()
        assert _hook(CompiledBackend(), potential, system, full) is not None
        potential.params = replace(potential.params, m=2)
        system.forces[...] = 0.0
        assert _hook(CompiledBackend(), potential, system, full) is None
        assert np.all(system.forces == 0.0)


def _route_case(closed_form):
    """``(system, neighbors, potential)`` a ``closed_form`` route engages
    on, with its list built."""
    if closed_form == "lj/charmm/coul/long":
        return _rhodo_pass()
    if closed_form == "lj/cut":
        system, nlist, potential = (
            lj_melt_system(256, seed=5), NeighborList(2.5, 0.3), LennardJonesCut()
        )
    elif closed_form == "eam/alloy":
        system, nlist, potential = (
            eam_solid_system(256, seed=5), NeighborList(4.95, 1.0), EAMAlloy()
        )
    else:
        system, nlist, potential = (
            AtomSystem(*_silicon(3)), NeighborList(3.0, 0.5, full=True), Tersoff()
        )
    nlist.build(system)
    return system, nlist, potential


@needs_compiled
class TestRoutesDecline:
    """A route's native calls are refused by their entries, and every
    system write follows the route's last native call."""

    @pytest.mark.parametrize(
        "closed_form", ["lj/cut", "eam/alloy", "lj/charmm/coul/long", "tersoff"]
    )
    def test_read_only_forces_decline_without_writing(self, closed_form):
        """The route engages on the system as built; with its forces
        read-only it returns ``None`` and writes neither the forces nor
        the row view's energy and virial (EAM's embedding energy
        included)."""
        system, nlist, potential = _route_case(closed_form)
        assert potential.closed_form == closed_form
        assert _hook(CompiledBackend(), potential, system, nlist) is not None
        system.forces[...] = 0.0
        system.forces.flags.writeable = False
        rows = StoredRows(system, nlist, CompiledBackend())
        assert rows.backend.pair_forces(potential, rows) is None
        assert np.all(system.forces == 0.0)
        assert rows.energy == rows.virial == 0.0


# ---------------------------------------------------------------------------
# Native directed rows vs the half list -> mirror -> lexsort fallback
# ---------------------------------------------------------------------------
@st.composite
def _local_sets(draw):
    """Subdomain-like local atom sets: non-cubic extents from under one
    cutoff to several (so bins are empty as often as crowded), optionally
    flattened to a plane (the chute's quasi-2D slab) or a line, with a
    sort key that is neither ascending nor dense — what owned + ghost
    global ids look like — and every anchor limit the engine can pass."""
    rc = draw(st.floats(0.8, 1.6))
    n = draw(st.integers(2, 160))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    extents = np.array([draw(st.floats(0.3, 6.0)) * rc for _ in range(3)])
    origin = np.array([draw(st.floats(-5.0, 5.0)) for _ in range(3)])
    positions = origin + rng.uniform(0.0, 1.0, (n, 3)) * extents
    flat_dims = draw(st.sampled_from([(), (2,), (0,), (1, 2), (0, 1)]))
    for d in flat_dims:
        positions[:, d] = origin[d]
    sort_key = draw(
        st.sampled_from(["none", "permuted", "sparse"])
    )
    if sort_key == "none":
        key = None
    elif sort_key == "permuted":
        key = rng.permutation(n).astype(np.int64)
    else:
        key = rng.choice(50 * n, size=n, replace=False).astype(np.int64)
    n_owned = int(rng.integers(0, n + 1))
    anchor_limit = draw(st.sampled_from([None, n_owned, 0, n]))
    return np.ascontiguousarray(positions), rc, key, anchor_limit


@needs_compiled
class TestNativeDirectedRows:
    @given(config=_local_sets(), brute=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_rows_are_bitwise_the_lexsort_fallback(self, config, brute):
        """At every size the kernel builds the rows, bitwise the numpy
        body's whichever half list it mirrors (all pairs or link cells)."""
        positions, rc, key, anchor_limit = config
        backend = CompiledBackend()
        counts = []
        native_rows = backend._impl.cell_rows

        def spy(*args):
            counts.append(native_rows(*args))
            return counts[-1]

        brute_force = brute_force_up_to(10**6 if brute else 0)
        with brute_force, pytest.MonkeyPatch.context() as patch:
            expected = subdomain_directed_pairs(
                positions, rc, sort_key=key, anchor_limit=anchor_limit
            )
            patch.setattr(backend._impl, "cell_rows", spy)
            native = subdomain_directed_pairs(
                positions, rc, sort_key=key, anchor_limit=anchor_limit,
                kernels=backend,
            )
        # The kernel's last call returned the rows: "equal" cannot pass
        # by the kernel silently declining.
        assert counts and counts[-1] == len(native.partners)
        assert _same_rows(native, expected)

    def test_capacity_overflow_retry_returns_the_same_rows(
        self, monkeypatch, cell_lists
    ):
        """A dense blob beside a lone far atom: the bounding box's mean
        density underestimates the rows ~100x, the first buffer
        overflows, and the retry (sized from the reported count) must
        deliver the same rows."""
        rng = np.random.default_rng(12)
        positions = np.vstack([rng.uniform(0, 1, (500, 3)), [[40.0, 40.0, 40.0]]])
        key = rng.permutation(len(positions)).astype(np.int64)
        backend = CompiledBackend()
        capacities = []
        native = backend._impl.cell_rows

        def recording(pos, lengths, origin, periodic, rc, key, anchors, oj, offsets):
            capacities.append(len(oj))
            return native(pos, lengths, origin, periodic, rc, key, anchors, oj, offsets)

        monkeypatch.setattr(backend._impl, "cell_rows", recording)
        rows = subdomain_directed_pairs(positions, 2.0, sort_key=key, kernels=backend)
        n_rows = 500 * 499  # the blob's diameter is < rc
        assert len(capacities) == 2
        assert capacities[0] < n_rows == capacities[1] == len(rows.partners)
        expected = subdomain_directed_pairs(positions, 2.0, sort_key=key)
        assert _same_rows(rows, expected)
        # The hint now covers this density: the next build fits first time.
        subdomain_directed_pairs(positions, 2.0, sort_key=key, kernels=backend)
        assert len(capacities) == 3 and capacities[2] >= n_rows

    def test_float32_and_providerless_backends_land_on_the_fallback(
        self, cell_lists
    ):
        rng = np.random.default_rng(4)
        positions = rng.uniform(0, 6, (300, 3))
        key = rng.permutation(300).astype(np.int64)
        box = Box([8.0] * 3, periodic=(False,) * 3, origin=[-1.0] * 3)
        compiled, plain = CompiledBackend(), NumpyFastBackend()
        single = positions.astype(np.float32)
        assert compiled.directed_rows(single, box, 1.5, key) is None
        assert plain.directed_rows(positions, box, 1.5, key) is None
        # A periodic box is not a subdomain's: the kernel has no
        # minimum-image stencil walk to offer.
        assert compiled.directed_rows(positions, Box([8.0] * 3), 1.5, key) is None
        for kernels, pos in ((compiled, single), (plain, positions)):
            got = subdomain_directed_pairs(pos, 1.5, sort_key=key, kernels=kernels)
            expected = subdomain_directed_pairs(pos, 1.5, sort_key=key)
            assert _same_rows(got, expected)

    def test_the_hook_is_asked_at_every_size_and_never_for_a_half_list(
        self, monkeypatch
    ):
        """Below the brute-force crossover too the rows are the
        ``directed_rows`` hook's; when it declines, the body mirrors its
        own numpy half list, never one from ``neighbor_pairs``."""
        backend = CompiledBackend()
        asked, real = [], backend.directed_rows
        monkeypatch.setattr(
            backend, "directed_rows", lambda *a: asked.append(len(a[0])) or real(*a)
        )
        monkeypatch.setattr(
            backend, "neighbor_pairs",
            lambda *a, **k: pytest.fail("a half list asked of the backend"),
        )
        positions = np.random.default_rng(5).uniform(0, 4, (100, 3))
        expected = subdomain_directed_pairs(positions, 1.0)
        rows = subdomain_directed_pairs(positions, 1.0, kernels=backend)
        assert asked == [100] and len(rows.partners)
        assert _same_rows(rows, expected)
        monkeypatch.setattr(backend, "directed_rows", lambda *a: None)
        declined = subdomain_directed_pairs(positions, 1.0, kernels=backend)
        assert _same_rows(declined, expected)

    def test_tied_sort_keys_decline_and_keep_the_stable_order(self, cell_lists):
        """Two partners of one anchor under one key (two images of one
        atom): ``lexsort`` breaks the tie by position in the mirrored
        list, an order the kernel never forms — it must decline, not
        guess."""
        rng = np.random.default_rng(6)
        positions = rng.uniform(0, 2, (240, 3))  # everyone neighbors everyone
        tied = np.arange(240, dtype=np.int64) // 2
        backend = CompiledBackend()
        box = Box([6.0] * 3, periodic=(False,) * 3, origin=[-2.0] * 3)
        assert backend.directed_rows(positions, box, 4.0, tied) is None
        assert backend.directed_rows(positions, box, 4.0, 2 * tied) is None
        unique = rng.permutation(240).astype(np.int64)
        assert backend.directed_rows(positions, box, 4.0, unique) is not None
        # What the numpy body builds (the tie order is its half list's).
        got = subdomain_directed_pairs(
            positions, 4.0, sort_key=tied, kernels=backend
        )
        expected = subdomain_directed_pairs(positions, 4.0, sort_key=tied)
        assert _same_rows(got, expected)

    @pytest.mark.parametrize("kind, owned_only", [("lj", True), ("eam", False)])
    def test_hook_engages_for_an_engine_subdomain(self, kind, owned_only, monkeypatch):
        """A worker-sized local set (> 800 atoms) really is built by the
        kernel under ``cc`` — and ``DomainLists`` cannot tell: rows,
        global ids and owned prefix equal the ones the declining
        backend's numpy path produces."""
        system, potential = _jittered_case(kind, n=4000 if kind == "lj" else 500)
        list_cutoff = potential.cutoff + 0.3
        backend = CompiledBackend()
        calls = []
        native = backend._impl.cell_rows

        def spy(pos, *args):
            calls.append(len(pos))
            return native(pos, *args)

        monkeypatch.setattr(backend._impl, "cell_rows", spy)
        build = dict(
            owned_only=owned_only, halo_width=potential.halo_width(list_cutoff)
        )
        for worker in range(2):
            lists = _one_domain(
                system, list_cutoff, None, worker, (2, 1, 1),
                kernels=backend, **build,
            )
            oracle = _one_domain(
                system, list_cutoff, None, worker, (2, 1, 1), **build
            )
            assert len(calls) == worker + 1 and calls[-1] > 800
            assert calls[-1] == lists.index.n_local
            assert _same_bits(lists.index.gids, oracle.index.gids)
            assert _same_rows(lists, oracle)
            assert lists.n_owned_rows == oracle.n_owned_rows > 0
            assert owned_only == (lists.n_owned_rows == len(lists.partners))

    def test_exclusions_filter_the_native_rows(self):
        """The exclusion filter runs on the kernel's rows as on the numpy
        body's: both directions of every excluded pair go, the rest keep
        their order."""
        system, potential = _jittered_case("lj", n=4000)
        rng = np.random.default_rng(9)
        nlist = NeighborList(potential.cutoff, 0.3)
        nlist.build(system)
        chosen = rng.choice(len(nlist.pair_i), 500, replace=False)
        exclusions = np.column_stack(
            [nlist.pair_i[chosen], nlist.csr_neighbors[chosen]]
        )
        lists = _one_domain(
            system, 2.8, exclusions, 0, (1, 1, 1), kernels=CompiledBackend()
        )
        oracle = _one_domain(system, 2.8, exclusions, 0, (1, 1, 1))
        plain = _one_domain(system, 2.8, None, 0, (1, 1, 1))
        assert _same_rows(lists, oracle)
        assert len(lists.partners) == len(plain.partners) - 2 * len(exclusions)

    def test_smoke_test_demotes_a_provider_with_rows_in_index_order(self):
        """The engine no longer sorts native rows by global id, so a
        provider that emits the right rows in local-index order must
        not pass."""
        _smoke_test(resolve_provider()[0])  # the real provider passes
        _assert_demoted("cell_rows", _after(_rows_by_index))


# ---------------------------------------------------------------------------
# Minimum-image fast path (|d| <= 0.49 L skips the divide and rint)
# ---------------------------------------------------------------------------
def _displacement_probe(dtype):
    """Atom pairs whose x/y/z separations sit on and around every
    branch point of the minimum-image fast path, as a hand-made list.

    ``L = 8`` is dyadic, so ``0.49 * L`` (the kernels' threshold, same
    expression) and the half-box are exact in both float widths; atom 0
    sits at the origin so the stored displacement is the probe itself.
    """
    L = dtype(8.0)
    edge = dtype(0.49) * L
    up = lambda x: np.nextafter(x, dtype(np.inf))  # noqa: E731
    down = lambda x: np.nextafter(x, dtype(-np.inf))  # noqa: E731
    probes = [
        dtype(0.0), -dtype(0.0),
        edge, -edge, up(edge), down(-edge), down(edge), up(-edge),
        dtype(4.0), dtype(-4.0), up(dtype(4.0)), down(dtype(-4.0)),
        down(dtype(4.0)), up(dtype(-4.0)),
        dtype(12.0), dtype(-12.0), up(dtype(12.0)), down(dtype(-12.0)),
        dtype(13.5), dtype(-13.5), dtype(20.0), dtype(-27.25),  # unwrapped
        dtype(1.25), dtype(-3.0),
    ]
    rows = []
    for axis in range(3):
        for probe in probes:
            row = np.zeros(3, dtype)
            row[axis] = probe
            rows.append(row)
    positions = np.vstack([np.zeros((1, 3), dtype), np.array(rows, dtype)])
    return positions, len(rows)


def _probe_rows(m):
    """CSR rows pairing atom 0 with each of the ``m`` probes both ways:
    row 0 holds every probe, row ``k`` holds atom 0."""
    offsets = np.concatenate([[0], m + np.arange(m + 1)])
    partners = np.concatenate([np.arange(1, m + 1), np.zeros(m, np.int64)])
    return offsets, partners


@needs_compiled
class TestMinimumImageFastPath:
    @pytest.mark.parametrize("mode", ["double", "single"])
    @pytest.mark.parametrize(
        "periodic", [(True, True, True), (True, False, True), (False,) * 3]
    )
    def test_pair_geometry_bitwise_around_every_branch_point(self, mode, periodic):
        policy = policy_for(mode)
        dtype = policy.storage_dtype.type
        positions, m = _displacement_probe(dtype)
        system = AtomSystem(
            positions.astype(np.float64), Box([8.0] * 3, periodic=periodic)
        )
        if mode == "single":
            system.positions = positions  # float32 storage, as SINGLE keeps it
        nlist = NeighborList(1.0, 0.0)
        # "b - a" rows put the probe itself (sign included) into dr;
        # "a - b" rows its negation, which is where -0.0 comes from.
        nlist.csr_offsets, nlist.csr_neighbors = _probe_rows(m)
        nlist._positions_at_build = system.positions
        outputs = []
        for backend in (NumpyFastBackend(), CompiledBackend()):
            backend.set_policy(policy)
            outputs.append(backend.current_pairs(system, nlist, 100.0))
        for expected, got in zip(*outputs):
            assert _same_bits(got, expected)
        assert len(outputs[0][0]) == 2 * m  # nothing was filtered out

    @pytest.mark.parametrize("periodic", [(True, True, True), (True, False, True)])
    def test_fused_passes_bitwise_around_every_branch_point(self, periodic):
        positions, m = _displacement_probe(np.float64)
        # Keep the probes apart from each other's images and off r = 0.
        positions[1:] += [0.0625, 0.125, 0.03125]
        system = AtomSystem(positions, Box([8.0] * 3, periodic=periodic))
        nlist = NeighborList(3.0, 0.0)
        nlist.csr_offsets, nlist.csr_neighbors = _probe_rows(m)
        nlist._positions_at_build = system.positions
        potential = LennardJonesCut(cutoff=3.0)
        potential.backend = _UnfusedCompiled()
        expected = potential.compute(system, nlist)
        expected_forces = system.forces.copy()
        system.forces[...] = 0.0
        got = _hook(CompiledBackend(), potential, system, nlist)
        assert got == (expected.energy, expected.virial, expected.interactions)
        assert expected.interactions > 0
        assert _same_bits(system.forces, expected_forces)


# ---------------------------------------------------------------------------
# Oracle matrix: every backend x precision mode x potential family
# ---------------------------------------------------------------------------
def _jittered_case(kind, seed=17, n=None):
    """A benchmark system pushed off its lattice.

    The pristine lattices have near-zero forces by symmetry, which
    makes relative force norms meaningless; a small jitter gives O(1)
    forces to compare against the oracle.
    """
    if kind == "lj":
        system = lj_melt_system(n or 500, seed=seed)
        potential = LennardJonesCut(cutoff=2.5)
    else:
        system = eam_solid_system(n or 256, seed=seed)
        potential = EAMAlloy()
    rng = np.random.default_rng(seed + 1)
    system.positions += rng.normal(scale=0.05, size=system.positions.shape)
    return system, potential


class TestOracleMatrix:
    """Forces from each backend track the float64 numpy_ref oracle to
    the precision mode's tier (1e-12 at double)."""

    @pytest.mark.parametrize("kind", ["lj", "eam"])
    @pytest.mark.parametrize("mode", ["single", "mixed", "double"])
    @pytest.mark.parametrize(
        "backend", ["numpy_ref", "numpy_fast", "compiled"]
    )
    def test_forces_within_tier(self, kind, mode, backend):
        if backend == "compiled" and not compiled_available():
            pytest.skip("no compiled provider on this machine")
        system, potential = _jittered_case(kind)
        sim = Simulation(system, [potential])
        sim.set_precision(mode)
        sim.set_backend(backend)
        sim.setup()
        forces = sim.system.forces.astype(np.float64)

        ref_system, ref_potential = _jittered_case(kind)
        ref = Simulation(ref_system, [ref_potential])
        ref.set_backend("numpy_ref")
        ref.system.positions[...] = sim.system.positions.astype(np.float64)
        ref.setup()
        ref_forces = np.asarray(ref.system.forces, dtype=np.float64)

        err = np.linalg.norm(forces - ref_forces) / np.linalg.norm(ref_forces)
        assert err < policy_for(mode).force_rtol

    @needs_compiled
    def test_short_lj_trajectories_agree(self):
        trajectories = {}
        for backend in ("numpy_fast", "compiled"):
            sim = Simulation(
                lj_melt_system(256, seed=77),
                [LennardJonesCut(cutoff=2.5)],
                dt=0.005,
            )
            sim.set_backend(backend)
            sim.run(20)
            trajectories[backend] = sim.system.positions.copy()
        np.testing.assert_allclose(
            trajectories["compiled"],
            trajectories["numpy_fast"],
            rtol=1e-10,
            atol=1e-10,
        )


# ---------------------------------------------------------------------------
# Parallel determinism: the headline compiled contract
# ---------------------------------------------------------------------------
@needs_compiled
class TestParallelDeterminism:
    def _run_parallel(self, workers, steps=6, n_atoms=2048):
        from repro.parallel.engine import ParallelForceExecutor
        from repro.suite import get_benchmark

        sim = get_benchmark("lj").build(n_atoms)
        sim.set_backend("compiled")
        assert sim.backend.name == "compiled"
        executor = ParallelForceExecutor(workers)
        sim.force_executor = executor
        executor.bind(sim)
        try:
            sim.setup()
            for _ in range(steps):
                sim.step()
            return (
                sim.system.positions.copy(),
                sim.potential_energy,
                sim.system.forces.copy(),
            )
        finally:
            executor.close()

    def test_bitwise_identical_across_worker_counts(self):
        states = {w: self._run_parallel(w) for w in (1, 2, 4)}
        positions_1, energy_1, _ = states[1]
        for workers in (2, 4):
            positions, energy, _ = states[workers]
            assert np.array_equal(positions, positions_1)
            assert energy == energy_1

    def test_parallel_matches_serial_compiled(self):
        from repro.suite import get_benchmark

        steps = 3
        serial = get_benchmark("lj").build(2048)
        serial.set_backend("compiled")
        serial.setup()
        for _ in range(steps):
            serial.step()
        _, _, parallel_forces = self._run_parallel(2, steps=steps)
        delta = np.abs(serial.system.forces - parallel_forces).max()
        assert delta < 1e-10
