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
import warnings

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
from repro.md.potentials.eam import EAMAlloy, EAMParameters
from repro.md.potentials.lj import LennardJonesCut
from repro.md.potentials.tersoff import Tersoff, TersoffParameters
from repro.md.simulation import Simulation
from repro.parallel.forces import DomainLists, OwnerRows
from repro.parallel.halo import LocalIndex
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
        assert _hook(backend, potential.fused_style(), system, nlist) is None
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
        assert np.array_equal(plain.pair_j, accelerated.pair_j)
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
    ref_i, ref_j, ref_offsets = reference
    assert np.array_equal(rows.i, ref_i)
    assert np.array_equal(rows.j, ref_j)
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

        def recording(pos, lengths, origin, periodic, rc, oi, oj, offsets):
            capacities.append(len(oi))
            return native(pos, lengths, origin, periodic, rc, oi, oj, offsets)

        monkeypatch.setattr(backend._impl, "cell_csr", recording)
        rows = backend.neighbor_pairs(positions, box, 2.0)
        n_pairs = 600 * 599 // 2  # the blob's diameter is < rc
        assert len(capacities) == 2
        assert capacities[0] < n_pairs == capacities[1] == len(rows.i)
        _assert_rows_equal(rows, _sorted_reference(positions, box, 2.0))
        # The hint now covers this density: the next build fits first time.
        backend.neighbor_pairs(positions, box, 2.0)
        assert len(capacities) == 3 and capacities[2] >= n_pairs

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
        provider, _ = resolve_provider()

        class UnsortedRows:
            def __getattr__(self, name):
                return getattr(provider, name)

            def cell_csr(self, pos, lengths, origin, periodic, rc, oi, oj, offsets):
                count = provider.cell_csr(
                    pos, lengths, origin, periodic, rc, oi, oj, offsets
                )
                if 0 <= count <= len(oi):  # reverse every row in place
                    for a in range(len(pos)):
                        row = slice(offsets[a], offsets[a + 1])
                        oj[row] = oj[row][::-1].copy()
                return count

        _smoke_test(provider)  # the real provider passes
        with pytest.raises(AssertionError, match="cell_csr deviates"):
            _smoke_test(UnsortedRows())


# ---------------------------------------------------------------------------
# The provider's instance table is the oracle for binding and coverage
# ---------------------------------------------------------------------------
_TABLE_INSTANCES = [
    (stem, val, acc)
    for stem, (instances, _, _) in _cc_impl.KERNELS.items()
    for val, acc in instances
]


@needs_compiled
class TestInstanceTable:
    @pytest.mark.parametrize(
        "stem, val, acc",
        _TABLE_INSTANCES,
        ids=[_cc_impl.symbol(*instance) for instance in _TABLE_INSTANCES],
    )
    def test_smoke_test_demotes_a_provider_with_a_dead_instance(
        self, stem, val, acc, monkeypatch
    ):
        """Every bound instance is *called and checked* before a provider
        is trusted: swapping any one of them for a no-op must fail."""
        provider, _ = resolve_provider()
        _smoke_test(provider)  # the real provider passes
        monkeypatch.setitem(provider.bound, (stem, val, acc), lambda *args: 0)
        with pytest.raises(AssertionError, match=stem):
            _smoke_test(provider)

    def test_instances_are_the_policies_dtype_combinations(self):
        f32, f64 = np.dtype(np.float32), np.dtype(np.float64)
        assert set(_cc_impl.ACCUMULATE) == {(f32, f32), (f32, f64), (f64, f64)}
        assert set(_cc_impl.GEOMETRY) == {(f32, f32), (f64, f64)}
        assert set(_cc_impl.DOUBLE) == {(f64, f64)}
        for (val, acc), policy in _cc_impl.ACCUMULATE.items():
            assert (policy.compute_dtype, policy.accumulate_dtype) == (val, acc)
        for (val, _), policy in _cc_impl.GEOMETRY.items():
            assert policy.storage_dtype == val

    @pytest.mark.skipif(shutil.which("nm") is None, reason="needs binutils nm")
    def test_library_exports_exactly_the_table(self):
        """Same program out: the table's 29 entry points, no more (a
        template helper leaking as a global) and no fewer (a row the
        generator skipped)."""
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
            "cell_csr_f64", "cell_rows_f64",
            "eam_density_f64", "eam_forces_f64", "eam_geom_f64",
            "lj_half_f64", "lj_rows_f64",
            "max_disp_sq_f64", "pair_geom_f32", "pair_geom_f64",
            "pppm_gather_f32", "pppm_gather_f32f64", "pppm_gather_f64",
            "pppm_spread_f32", "pppm_spread_f32f64", "pppm_spread_f64",
            "scatter1_f32", "scatter1_f32f64", "scatter1_f64",
            "scatter3_f32", "scatter3_f32f64", "scatter3_f64",
            "tersoff_full_f64",
        ]

    def test_build_cache_is_keyed_by_the_generated_source(self):
        """No stale library can be reused: the file name carries a hash
        of the translation unit that was actually compiled."""
        provider, _ = resolve_provider()
        material = "\x00".join(
            [_cc_impl._SOURCE, _cc_impl._find_compiler(), *_cc_impl._CFLAGS]
        )
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
                ("pppm_stencil", "pppm_spread", "pppm_gather"),
                (_cc_impl._MESH_C, _cc_impl.ACCUMULATE),
            ),
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


# ---------------------------------------------------------------------------
# Fused lj/cut force pass vs the unfused compiled path, bit for bit
# ---------------------------------------------------------------------------
class _UnfusedCompiled(CompiledBackend):
    """The compiled backend as it ran before the fused pass existed:
    the hook declines, both drivers run the potential's body."""

    pair_forces = KernelBackend.pair_forces


def _hook(backend, style, system, nlist):
    """What the one hook answers over a stored list: ``(energy, virial,
    interactions)`` as its view accumulated them, or ``None``."""
    rows = StoredRows(system, nlist, backend)
    count = backend.pair_forces(style, rows)
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
        fused = _hook(CompiledBackend(), potential.fused_style(), system, nlist)
        assert fused is not None, "the fused kernel declined a float64 LJ case"
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
        style = LennardJonesCut(cutoff=2.5).fused_style()
        assert _hook(backend, style, system, nlist) is None
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
        assert _hook(backend, two_types.fused_style(), system, nlist) is None
        system.types[7] = -1
        assert _hook(backend, two_types.fused_style(), system, nlist) is None
        system.types[7] = 0
        one_type = LennardJonesCut(cutoff=2.5).fused_style()
        strided = AtomSystem(system.positions.copy(), system.box)
        strided.forces = np.zeros((256 * 2, 3))[::2][: system.n_atoms]
        assert _hook(backend, one_type, strided, nlist) is None
        assert np.all(strided.forces == 0.0)
        unknown = type(one_type)("morse", 2.5, one_type.coeffs)
        assert _hook(backend, unknown, system, nlist) is None
        with pytest.raises(RuntimeError, match="never been built"):
            _hook(backend, one_type, system, NeighborList(2.5, 0.3))

    def test_smoke_test_demotes_a_provider_whose_fused_pass_drifts(self):
        provider, _ = resolve_provider()

        class OffByAnUlp:
            def __getattr__(self, name):
                return getattr(provider, name)

            def lj_half(self, *args):
                count = provider.lj_half(*args)
                forces = args[-3]
                forces[0, 0] = np.nextafter(forces[0, 0], np.inf)
                return count

        class WrongRowOrder:
            def __getattr__(self, name):
                return getattr(provider, name)

            def lj_rows(self, pos, di, dj, gi, gj, *rest):
                back = slice(None, None, -1)
                return provider.lj_rows(
                    pos,
                    *(np.ascontiguousarray(x[back]) for x in (di, dj, gi, gj)),
                    *rest,
                )

        with pytest.raises(AssertionError, match="lj_half deviates"):
            _smoke_test(OffByAnUlp())
        with pytest.raises(AssertionError, match="lj_rows deviates"):
            _smoke_test(WrongRowOrder())


# ---------------------------------------------------------------------------
# Fused eam/alloy pass vs the numpy body, bit for bit (numpy keeps exp)
# ---------------------------------------------------------------------------
class _MustFuse(CompiledBackend):
    """The compiled backend with its fused hook *required* to engage,
    so agreement with the unfused route cannot come from declining."""

    def pair_forces(self, style, rows):
        fused = super().pair_forces(style, rows)
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


def _eam_routes(potential, system, nlist, preload):
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
        _assert_same_pass(*_eam_routes(potential, system, nlist, preload))

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
        body = _eam_routes(potential, system, nlist, 0.0)[0]
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
        body, fused = _eam_routes(EAMAlloy(), system, nlist, preload)
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
            sizes.append((backend._exp_args, len(nlist.pair_i)))
        (first, m_small), (second, _), (third, m_large) = sizes
        assert second is first and len(first) >= 3 * m_small
        assert len(third) >= 3 * m_large > len(first)

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
        assert _hook(backend, EAMAlloy().fused_style(), system, nlist) is None
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
        assert CompiledBackend().pair_forces(potential.fused_style(), rows) is None
        assert np.all(rows.forces == 0.0)

    def test_smoke_test_demotes_a_provider_whose_sweep_drifts(self):
        provider, _ = resolve_provider()

        class OffByAnUlp:
            def __init__(self, stem, nudge):
                self.stem, self.nudge = stem, nudge

            def __getattr__(self, name):
                native = getattr(provider, name)
                if name != self.stem:
                    return native

                def drifting(*args):
                    out = native(*args)
                    self.nudge(args)
                    return out

                return drifting

        def bump(array):
            array.flat[0] = np.nextafter(array.flat[0], np.inf)

        for stem, nudge in (
            ("eam_geom", lambda args: bump(args[-1])),  # an exp argument
            ("eam_density", lambda args: bump(args[-1])),  # rho
            ("eam_forces", lambda args: bump(args[-1])),  # a pair virial
        ):
            with pytest.raises(AssertionError, match=f"{stem} deviates"):
                _smoke_test(OffByAnUlp(stem, nudge))


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
        assert len(backend._row_atoms) == 0 and longest > 32
        potential.backend = backend
        potential.compute(system, nlist)
        assert len(backend._row_atoms) >= longest
        grown = backend._row_atoms
        potential.compute(system, nlist)
        assert backend._row_atoms is grown  # grow-only: reused as is

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
        style = Tersoff().fused_style()
        backend = CompiledBackend()
        assert _hook(backend, style, system, full) is not None
        # The backend reads m by position in the parameter vector.
        (vector,) = Tersoff(TersoffParameters(m=1)).fused_style().coeffs
        assert vector.shape == (14,) and vector[compiled_module._TERSOFF_M] == 1.0
        assert list(TersoffParameters.__dataclass_fields__).index("m") == (
            compiled_module._TERSOFF_M
        )

        def declined(style=style, system=system, nlist=full, mode="double"):
            backend = CompiledBackend()
            backend.set_policy(policy_for(mode))
            before = system.forces.copy()
            answer = _hook(backend, style, system, nlist)
            return answer is None and _same_bits(system.forces, before)

        assert declined(mode="single")
        assert declined(mode="mixed")
        assert declined(style=Tersoff(TersoffParameters(m=2)).fused_style())
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
        system, nlist = compiled_module._smoke_silicon()
        assert system.n_atoms <= 64 and not system.box.periodic.all()
        assert np.abs(system.forces).min() > 0.0  # pre-loaded
        assert (np.diff(nlist.csr_offsets) == 0).sum() == 1
        _, _, _, r = NumpyFastBackend().current_pairs(system, nlist, 3.0)
        p = TersoffParameters()
        assert np.any(np.abs(r - p.R) < 0.5 * p.D)

    def test_smoke_test_demotes_a_provider_whose_fused_pass_drifts(self):
        provider, _ = resolve_provider()

        class Drifting:
            def __init__(self, nudge):
                self.nudge = nudge

            def __getattr__(self, name):
                return getattr(provider, name)

            def tersoff_full(self, *args):
                count = provider.tersoff_full(*args)
                self.nudge(args[-2], args[-1])
                return count

        def past_the_tier(forces, totals):
            forces[0, 0] += 1e-9

        calls = []

        def not_repeatable(forces, totals):
            calls.append(1)
            totals[0] = np.nextafter(totals[0], np.inf * (-1) ** len(calls))

        for nudge in (past_the_tier, not_repeatable):
            with pytest.raises(AssertionError, match="tersoff_full deviates"):
                _smoke_test(Drifting(nudge))


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


class _NoDirectedRows(CompiledBackend):
    """The compiled backend as it was before the directed-row kernel:
    the hook declines, the native half list is mirrored and lexsorted."""

    directed_rows = KernelBackend.directed_rows


@needs_compiled
class TestNativeDirectedRows:
    @given(config=_local_sets())
    @settings(max_examples=300, deadline=None)
    def test_rows_are_bitwise_the_lexsort_fallback(self, config):
        positions, rc, key, anchor_limit = config
        backend = CompiledBackend()
        counts = []
        native_rows = backend._impl.cell_rows

        def spy(*args):
            counts.append(native_rows(*args))
            return counts[-1]

        with brute_force_up_to(0), pytest.MonkeyPatch.context() as patch:
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
        assert counts and counts[-1] == len(native.i)
        assert _same_bits(native.i, expected.i)
        assert _same_bits(native.j, expected.j)

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

        def recording(pos, lengths, origin, periodic, rc, key, anchors, oi, oj):
            capacities.append(len(oi))
            return native(pos, lengths, origin, periodic, rc, key, anchors, oi, oj)

        monkeypatch.setattr(backend._impl, "cell_rows", recording)
        rows = subdomain_directed_pairs(positions, 2.0, sort_key=key, kernels=backend)
        n_rows = 500 * 499  # the blob's diameter is < rc
        assert len(capacities) == 2
        assert capacities[0] < n_rows == capacities[1] == len(rows.i)
        expected = subdomain_directed_pairs(positions, 2.0, sort_key=key)
        assert _same_bits(rows.i, expected.i) and _same_bits(rows.j, expected.j)
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
            assert _same_bits(got.i, expected.i) and _same_bits(got.j, expected.j)

    def test_below_the_crossover_the_hook_is_not_asked(self, monkeypatch):
        backend = CompiledBackend()
        monkeypatch.setattr(
            backend, "directed_rows",
            lambda *a, **k: pytest.fail("hook asked below the crossover"),
        )
        positions = np.random.default_rng(5).uniform(0, 4, (100, 3))
        rows = subdomain_directed_pairs(positions, 1.0, kernels=backend)
        assert len(rows.i)

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
        # What the same backend built before it had the hook (the tie
        # order depends on the half list's, so on who built that).
        got = subdomain_directed_pairs(
            positions, 4.0, sort_key=tied, kernels=backend
        )
        expected = subdomain_directed_pairs(
            positions, 4.0, sort_key=tied, kernels=_NoDirectedRows()
        )
        assert _same_bits(got.i, expected.i) and _same_bits(got.j, expected.j)

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
            for name in ("di", "dj", "gdi", "gdj"):
                assert _same_bits(getattr(lists, name), getattr(oracle, name))
            assert lists.n_owned_rows == oracle.n_owned_rows > 0
            assert owned_only == (lists.n_owned_rows == len(lists.di))

    def test_exclusions_filter_the_native_rows(self):
        """The exclusion filter runs on the kernel's rows as on the numpy
        body's: both directions of every excluded pair go, the rest keep
        their order."""
        system, potential = _jittered_case("lj", n=4000)
        rng = np.random.default_rng(9)
        nlist = NeighborList(potential.cutoff, 0.3)
        nlist.build(system)
        chosen = rng.choice(len(nlist.pair_i), 500, replace=False)
        exclusions = np.column_stack([nlist.pair_i[chosen], nlist.pair_j[chosen]])
        lists = _one_domain(
            system, 2.8, exclusions, 0, (1, 1, 1), kernels=CompiledBackend()
        )
        oracle = _one_domain(system, 2.8, exclusions, 0, (1, 1, 1))
        plain = _one_domain(system, 2.8, None, 0, (1, 1, 1))
        assert _same_bits(lists.di, oracle.di) and _same_bits(lists.dj, oracle.dj)
        assert len(lists.di) == len(plain.di) - 2 * len(exclusions)

    def test_smoke_test_demotes_a_provider_with_rows_in_index_order(self):
        """The engine no longer sorts native rows by global id, so a
        provider that emits the right rows in local-index order must
        not pass."""
        provider, _ = resolve_provider()

        class IndexOrderedRows:
            def __getattr__(self, name):
                return getattr(provider, name)

            def cell_rows(self, pos, lengths, origin, periodic, rc, key, anchors,
                          oi, oj):
                count = provider.cell_rows(
                    pos, lengths, origin, periodic, rc, key, anchors, oi, oj
                )
                if 0 <= count <= len(oi):  # re-sort every row by j itself
                    order = np.lexsort((oj[:count], oi[:count]))
                    oj[:count] = oj[:count][order]
                return count

        _smoke_test(provider)  # the real provider passes
        with pytest.raises(AssertionError, match="cell_rows deviates"):
            _smoke_test(IndexOrderedRows())


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
        nlist.pair_i = np.concatenate([np.arange(1, m + 1), np.zeros(m, np.int64)])
        nlist.pair_j = np.concatenate([np.zeros(m, np.int64), np.arange(1, m + 1)])
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
        nlist.pair_i = np.concatenate([np.arange(1, m + 1), np.zeros(m, np.int64)])
        nlist.pair_j = np.concatenate([np.zeros(m, np.int64), np.arange(1, m + 1)])
        nlist._positions_at_build = system.positions
        potential = LennardJonesCut(cutoff=3.0)
        potential.backend = _UnfusedCompiled()
        expected = potential.compute(system, nlist)
        expected_forces = system.forces.copy()
        system.forces[...] = 0.0
        got = _hook(CompiledBackend(), potential.fused_style(), system, nlist)
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
