"""The shared ``repro-bench-report/2`` envelope and the one host stamp.

Every record the package writes (``repro trace --power``, the campaign
report) carries one versioned envelope (backend, precision, energy
provenance, platform) defined once in :mod:`repro.report`; its
``platform`` block, like a certification manifest's ``host`` field, is
:func:`~repro.observability.telemetry.provenance.host_facts` whole.
"""

import json

import pytest

from repro.md.kernels import _cc_impl, compiled
from repro.observability.telemetry import provenance
from repro.observability.telemetry.provenance import HOST_CLASS_FIELDS, host_facts
from repro.report import (
    ENERGY_KINDS,
    KINDS,
    SCHEMA,
    ReportError,
    energy_provenance,
    make_report,
    validate_report,
)

class TestMakeReport:
    def test_minimal_report_validates(self):
        backend = {"requested": "auto", "resolved": "numpy_fast"}
        record = make_report("power", backend=backend)
        assert record["schema"] == SCHEMA
        assert record["backend"] == backend
        assert record["precision"] == "double"
        assert record["energy"]["kind"] == "unavailable"

    def test_backend_is_required(self):
        """A record names the kernels that produced it; there is no
        made-up default."""
        with pytest.raises(TypeError, match="backend"):
            make_report("power")

    def test_bare_backend_name_expands(self):
        record = make_report("power", backend="numpy_fast")
        assert record["backend"]["requested"] == "numpy_fast"
        assert record["backend"]["resolved"] == "numpy_fast"

    def test_payload_merges_at_top_level(self):
        record = make_report(
            "campaign", backend="numpy_fast", results=[1, 2], summary={"x": 1}
        )
        assert record["results"] == [1, 2]
        assert record["summary"] == {"x": 1}

    def test_payload_cannot_shadow_envelope(self):
        with pytest.raises(ReportError, match="shadows envelope"):
            make_report("power", backend="numpy_fast", schema="evil")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ReportError, match="kind"):
            make_report("fridge", backend="numpy_fast")

    def test_precision_list_accepted(self):
        record = make_report(
            "campaign", backend="numpy_fast", precision=["single", "mixed", "double"]
        )
        assert record["precision"] == ["single", "mixed", "double"]


class TestValidateReport:
    def _good(self):
        return make_report("campaign", backend="numpy_fast")

    def test_round_trips(self):
        assert validate_report(self._good()) is not None

    def test_non_dict_rejected(self):
        with pytest.raises(ReportError, match="must be a dict"):
            validate_report([1, 2, 3])

    def test_wrong_schema_rejected(self):
        record = self._good()
        record["schema"] = "repro-bench-kernels/1"
        with pytest.raises(ReportError, match="schema"):
            validate_report(record)

    def test_retired_harness_kind_rejected(self):
        record = self._good()
        record["kind"] = "kernels"
        with pytest.raises(ReportError, match="kind 'kernels'"):
            validate_report(record)

    def test_bad_precision_rejected(self):
        record = self._good()
        record["precision"] = "quad"
        with pytest.raises(ReportError, match="precision"):
            validate_report(record)

    def test_empty_precision_list_rejected(self):
        record = self._good()
        record["precision"] = []
        with pytest.raises(ReportError, match="empty"):
            validate_report(record)

    def test_missing_platform_field_rejected(self):
        record = self._good()
        del record["platform"]["numpy"]
        with pytest.raises(ReportError, match="platform.numpy"):
            validate_report(record)

    def test_platform_without_host_class_rejected(self):
        record = self._good()
        del record["platform"]["host_class"]
        with pytest.raises(ReportError, match="platform.host_class"):
            validate_report(record)

    def test_backend_requires_requested_and_resolved(self):
        record = self._good()
        record["backend"] = {"requested": "auto"}
        with pytest.raises(ReportError, match="backend.resolved"):
            validate_report(record)

    def test_bad_energy_kind_rejected(self):
        record = self._good()
        record["energy"] = {"provider": "rapl", "kind": "guessed"}
        with pytest.raises(ReportError, match="energy.kind"):
            validate_report(record)

    def test_problems_are_aggregated(self):
        record = self._good()
        record["kind"] = "nope"
        record["precision"] = "quad"
        with pytest.raises(ReportError, match="kind.*precision"):
            validate_report(record)

    def test_created_unix_must_be_positive(self):
        record = self._good()
        record["created_unix"] = -5
        with pytest.raises(ReportError, match="created_unix"):
            validate_report(record)


class TestHelpers:
    def test_host_facts_has_required_fields(self):
        info = host_facts()
        for field in ("python", "numpy", "machine", "system", "host_class"):
            assert isinstance(info[field], str) and info[field]
        assert set(HOST_CLASS_FIELDS) <= set(info)

    def test_report_platform_is_host_facts_whole(self):
        """No producer adds to or picks from the stamp."""
        assert make_report("campaign", backend="numpy_fast")["platform"] == (
            host_facts()
        )

    def test_energy_provenance_names_a_known_kind(self):
        assert energy_provenance()["kind"] in ENERGY_KINDS

    def test_all_kinds_buildable(self):
        for kind in KINDS:
            assert make_report(kind, backend="numpy_fast")["kind"] == kind


class TestOneHostStamp:
    """One collector decides which host facts every record carries."""

    @pytest.mark.filterwarnings("ignore:TelemetrySampler")
    def test_power_campaign_and_manifest_carry_one_host_block(self, tmp_path):
        from repro.__main__ import main
        from repro.campaign import CampaignSpec, run_campaign
        from repro.md import RunConfig
        from repro.reliability.certify import (
            CertificationManifest,
            DigestRecorder,
        )
        from repro.service import JobSpec, build_simulation

        assert main([
            "trace", "lj", "--steps", "2", "--atoms", "128", "--warmup", "0",
            "--power", "model", "--out", str(tmp_path / "trace"),
        ]) == 0
        power = json.loads((tmp_path / "trace" / "energy.json").read_text())
        campaign = run_campaign(
            CampaignSpec(
                name="stamp",
                base={"benchmark": "lj", "n_atoms": 150, "steps": 2},
                sweep={},
            ),
            out=tmp_path / "campaign.json",
            timeout=600.0,
        )
        spec = JobSpec(benchmark="lj", n_atoms=150, steps=2)
        sim, steps = build_simulation(spec)
        recorder = DigestRecorder(every=1)
        sim.run(RunConfig(steps, digest=recorder))
        path = CertificationManifest.capture(sim, recorder.chain, spec).save(
            tmp_path / "manifest.json"
        )
        sim.close()
        manifest = CertificationManifest.load(path)

        stamp = host_facts()
        assert power["platform"] == stamp
        assert campaign["platform"] == stamp
        assert manifest.host == stamp
        assert f"host_class={stamp['host_class']}" in (
            manifest.environment_summary()
        )

    def test_host_facts_neither_builds_nor_resolves_the_provider(
        self, monkeypatch
    ):
        def refuse(*_args):
            raise AssertionError("host_facts touched the provider")

        monkeypatch.setattr(compiled, "resolve_provider", refuse)
        monkeypatch.setattr(_cc_impl, "_build_library", refuse)
        facts = host_facts()
        assert facts["compiler"] and facts["cflags"] == list(_cc_impl._CFLAGS)
        json.dumps(facts)

    def test_host_class_hashes_exactly_the_head_fields(self, monkeypatch):
        before = host_facts()["host_class"]
        monkeypatch.setattr(provenance.platform, "release", lambda: "other")
        monkeypatch.setattr(provenance.os, "cpu_count", lambda: 512)
        assert host_facts()["host_class"] == before
        monkeypatch.setattr(
            _cc_impl, "_CFLAGS", (*_cc_impl._CFLAGS, "-march=native")
        )
        assert host_facts()["host_class"] != before

    def test_compiler_id_is_the_first_version_line_or_the_name(
        self, tmp_path
    ):
        missing = str(tmp_path / "no-such-cc")
        assert _cc_impl.compiler_id(missing) == missing
        cc = _cc_impl._find_compiler()
        if cc is not None:
            banner = _cc_impl.compiler_id(cc)
            assert banner and "\n" not in banner
            assert host_facts()["compiler"] == banner

    def test_without_a_compiler_the_stamp_says_none(self, monkeypatch):
        monkeypatch.setattr(_cc_impl, "_find_compiler", lambda: None)
        facts = host_facts()
        assert facts["compiler"] is None
        assert len(facts["host_class"]) == 16
        json.dumps(facts)

    def test_simd_dispatch_lists_only_targets_this_cpu_enables(self):
        facts = host_facts()
        simd = provenance._simd
        assert facts["numpy_simd_baseline"] == list(simd.__cpu_baseline__)
        assert set(facts["numpy_simd_dispatch"]) <= set(simd.__cpu_dispatch__)
        assert all(
            simd.__cpu_features__[name] for name in facts["numpy_simd_dispatch"]
        )

    def test_host_differences_compare_only_the_fields_both_carry(self):
        stamp = host_facts()
        partial = {"numpy": stamp["numpy"], "machine": "elsewhere"}
        assert provenance.host_differences(partial, stamp) == ["machine"]
        assert provenance.host_differences(stamp, dict(stamp)) == []
        other = dict(stamp, libc="glibc 0.0", kernel_version="other")
        assert provenance.host_differences(stamp, other) == ["libc"]
