"""The shared ``repro-bench-report/2`` envelope.

Every record the package writes (``repro trace --power``, the campaign
report) carries one versioned envelope (backend, precision, energy
provenance, platform) defined once in :mod:`repro.report`.
"""

import pytest

from repro.report import (
    ENERGY_KINDS,
    KINDS,
    SCHEMA,
    ReportError,
    energy_provenance,
    make_report,
    platform_info,
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
    def test_platform_info_has_required_fields(self):
        info = platform_info()
        for field in ("python", "numpy", "machine", "system"):
            assert isinstance(info[field], str) and info[field]

    def test_platform_info_extras_merge(self):
        assert platform_info(cores=4)["cores"] == 4

    def test_energy_provenance_names_a_known_kind(self):
        assert energy_provenance()["kind"] in ENERGY_KINDS

    def test_all_kinds_buildable(self):
        for kind in KINDS:
            assert make_report(kind, backend="numpy_fast")["kind"] == kind
