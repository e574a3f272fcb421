"""Hardware-telemetry subsystem: providers, sampler, attribution.

Covers the ISSUE 7 acceptance set: RAPL counter wraparound, provider
auto-detection with clean model fallback on machines without powercap,
sample-interval/span-timeline energy attribution, MIN_RUN_SECONDS
warning behavior, and the provenance block the benchmarks embed.
"""

from __future__ import annotations

import json

import pytest

from repro.md.kernels import (
    BACKEND_ENV_VAR,
    DEFAULT_BACKEND,
    available_backends,
    resolved_backend,
)
from repro.observability import MetricsRegistry
from repro.observability.telemetry import (
    UNTRACKED,
    DramRaplProvider,
    IntervalSample,
    ModelProvider,
    ProcStatProvider,
    RaplProvider,
    TelemetrySampler,
    attribute_energy,
    cgroup_cpu_quota,
    detect_provider,
    local_instance_spec,
    platform_provenance,
    provider_diagnostics,
    render_energy_table,
)
from repro.observability.telemetry.providers import PROVIDER_ENV_VAR
from repro.platforms.power import (
    UnderSampledRunWarning,
    reset_under_sample_warnings,
)


@pytest.fixture(autouse=True)
def _isolate_provider_env(monkeypatch):
    """Detection tests must not inherit a forced provider (e.g. CI
    pins REPRO_POWER_PROVIDER=model job-wide)."""
    monkeypatch.delenv(PROVIDER_ENV_VAR, raising=False)


class FakeClock:
    """Deterministic, manually-advanced perf_counter stand-in."""

    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> float:
        self.t += dt
        return self.t


class ScriptedProvider:
    """Provider returning scripted joules per sample on a fake clock."""

    name = "scripted"
    kind = "measured"

    def __init__(self, clock, joules_per_second: float = 10.0) -> None:
        self._clock = clock
        self.joules_per_second = joules_per_second
        self._last = clock()

    def reset(self) -> None:
        self._last = self._clock()

    def sample(self) -> IntervalSample:
        now = self._clock()
        sample = IntervalSample(
            self._last, now, self.joules_per_second * (now - self._last)
        )
        self._last = now
        return sample

    def provenance(self) -> dict:
        return {"provider": self.name, "kind": self.kind}


def make_rapl_tree(
    root,
    packages: dict[str, int],
    *,
    max_range: int = 262_143_328_850,
    subdomains: bool = True,
    dram: int | None = None,
    dram_max_range: int = 65_712_999_613,
):
    """Build a fake /sys/class/powercap hierarchy under ``root``.

    ``dram`` adds an ``intel-rapl:<n>:1`` subdomain named ``dram`` per
    package at that counter value (real DRAM planes carry a smaller
    ``max_energy_range_uj`` than the package, hence the separate knob).
    """
    root.mkdir(exist_ok=True)
    for index, (label, energy) in enumerate(packages.items()):
        domain = root / f"intel-rapl:{index}"
        domain.mkdir()
        (domain / "energy_uj").write_text(f"{energy}\n")
        (domain / "max_energy_range_uj").write_text(f"{max_range}\n")
        (domain / "name").write_text(f"{label}\n")
        if subdomains:
            sub = root / f"intel-rapl:{index}:0"
            sub.mkdir()
            (sub / "energy_uj").write_text(f"{energy // 2}\n")
            (sub / "max_energy_range_uj").write_text(f"{max_range}\n")
            (sub / "name").write_text("core\n")
        if dram is not None:
            sub = root / f"intel-rapl:{index}:1"
            sub.mkdir()
            (sub / "energy_uj").write_text(f"{dram}\n")
            (sub / "max_energy_range_uj").write_text(f"{dram_max_range}\n")
            (sub / "name").write_text("dram\n")
    return root


def write_proc_stat(path, busy_total: list[tuple[int, int]]):
    """Write a minimal /proc/stat with per-core (busy, total) jiffies."""
    lines = []
    agg_busy = sum(b for b, _ in busy_total)
    agg_total = sum(t for _, t in busy_total)
    lines.append(
        f"cpu {agg_busy} 0 0 {agg_total - agg_busy} 0 0 0 0 0 0"
    )
    for i, (busy, total) in enumerate(busy_total):
        lines.append(f"cpu{i} {busy} 0 0 {total - busy} 0 0 0 0 0 0")
    lines.append("intr 0")
    path.write_text("\n".join(lines) + "\n")
    return path


# ---------------------------------------------------------------------------
# RAPL provider
# ---------------------------------------------------------------------------
class TestRaplProvider:
    def test_discovers_only_package_domains(self, tmp_path):
        root = make_rapl_tree(tmp_path / "powercap", {"package-0": 1000})
        provider = RaplProvider(root, clock=FakeClock())
        assert [d.label for d in provider.domains] == ["package-0"]

    def test_watts_from_energy_uj_delta(self, tmp_path):
        clock = FakeClock()
        root = make_rapl_tree(tmp_path / "powercap", {"package-0": 1_000_000})
        provider = RaplProvider(root, clock=clock)
        (root / "intel-rapl:0" / "energy_uj").write_text("51000000\n")
        clock.advance(2.0)
        sample = provider.sample()
        assert sample.joules == pytest.approx(50.0)
        assert sample.watts == pytest.approx(25.0)

    def test_wraparound_handled(self, tmp_path):
        clock = FakeClock()
        max_range = 1_000_000
        root = make_rapl_tree(
            tmp_path / "powercap", {"package-0": 900_000}, max_range=max_range
        )
        provider = RaplProvider(root, clock=clock)
        # Counter wrapped: 900_000 -> 100_000 means +200_000 uJ drawn.
        (root / "intel-rapl:0" / "energy_uj").write_text("100000\n")
        clock.advance(1.0)
        sample = provider.sample()
        assert sample.joules == pytest.approx(0.2)

    def test_multiple_packages_sum(self, tmp_path):
        clock = FakeClock()
        root = make_rapl_tree(
            tmp_path / "powercap", {"package-0": 0, "package-1": 0}
        )
        provider = RaplProvider(root, clock=clock)
        (root / "intel-rapl:0" / "energy_uj").write_text("1000000\n")
        (root / "intel-rapl:1" / "energy_uj").write_text("3000000\n")
        clock.advance(1.0)
        assert provider.sample().joules == pytest.approx(4.0)

    def test_subdomains_never_double_count(self, tmp_path):
        clock = FakeClock()
        root = make_rapl_tree(
            tmp_path / "powercap", {"package-0": 0}, subdomains=True
        )
        provider = RaplProvider(root, clock=clock)
        (root / "intel-rapl:0" / "energy_uj").write_text("2000000\n")
        (root / "intel-rapl:0:0" / "energy_uj").write_text("1000000\n")
        clock.advance(1.0)
        assert provider.sample().joules == pytest.approx(2.0)

    def test_missing_root_unavailable(self, tmp_path):
        missing = tmp_path / "nope"
        assert not RaplProvider.available(missing)
        assert "no powercap sysfs" in RaplProvider.diagnostic(missing)
        with pytest.raises(RuntimeError, match="powercap"):
            RaplProvider(missing)

    def test_unreadable_counter_unavailable(self, tmp_path):
        root = make_rapl_tree(tmp_path / "powercap", {"package-0": 0})
        (root / "intel-rapl:0" / "energy_uj").write_text("garbage\n")
        assert not RaplProvider.available(root)
        assert "no readable" in RaplProvider.diagnostic(root)

    def test_provenance_names_domains(self, tmp_path):
        root = make_rapl_tree(tmp_path / "powercap", {"package-0": 0})
        provider = RaplProvider(root, clock=FakeClock())
        record = provider.provenance()
        assert record["provider"] == "rapl"
        assert record["kind"] == "measured"
        assert record["domains"] == ["package-0"]


# ---------------------------------------------------------------------------
# DRAM RAPL provider (explicit-request-only memory-controller plane)
# ---------------------------------------------------------------------------
class TestDramRaplProvider:
    def test_discovers_only_dram_subdomains(self, tmp_path):
        root = make_rapl_tree(
            tmp_path / "powercap", {"package-0": 1000}, dram=500
        )
        provider = DramRaplProvider(root, clock=FakeClock())
        assert [d.label for d in provider.domains] == ["intel-rapl:0/dram"]
        # Neither the package counter nor the core subdomain leaks in.
        assert all(d.path.name == "intel-rapl:0:1" for d in provider.domains)

    def test_watts_exclude_package_and_core(self, tmp_path):
        clock = FakeClock()
        root = make_rapl_tree(
            tmp_path / "powercap", {"package-0": 0}, dram=1_000_000
        )
        provider = DramRaplProvider(root, clock=clock)
        # Package and core counters race ahead; only dram should count.
        (root / "intel-rapl:0" / "energy_uj").write_text("90000000\n")
        (root / "intel-rapl:0:0" / "energy_uj").write_text("40000000\n")
        (root / "intel-rapl:0:1" / "energy_uj").write_text("5000000\n")
        clock.advance(2.0)
        sample = provider.sample()
        assert sample.joules == pytest.approx(4.0)
        assert sample.watts == pytest.approx(2.0)

    def test_wraparound_uses_dram_range(self, tmp_path):
        clock = FakeClock()
        root = make_rapl_tree(
            tmp_path / "powercap", {"package-0": 0},
            dram=900_000, dram_max_range=1_000_000,
        )
        provider = DramRaplProvider(root, clock=clock)
        # 900_000 -> 100_000 through the (smaller) dram range: +200_000 uJ.
        (root / "intel-rapl:0" / "energy_uj").write_text("7\n")
        (root / "intel-rapl:0:1" / "energy_uj").write_text("100000\n")
        clock.advance(1.0)
        assert provider.sample().joules == pytest.approx(0.2)

    def test_multi_socket_dram_planes_sum(self, tmp_path):
        clock = FakeClock()
        root = make_rapl_tree(
            tmp_path / "powercap", {"package-0": 0, "package-1": 0}, dram=0
        )
        provider = DramRaplProvider(root, clock=clock)
        (root / "intel-rapl:0:1" / "energy_uj").write_text("1000000\n")
        (root / "intel-rapl:1:1" / "energy_uj").write_text("3000000\n")
        clock.advance(1.0)
        assert provider.sample().joules == pytest.approx(4.0)

    def test_unavailable_without_dram_subdomain(self, tmp_path):
        root = make_rapl_tree(tmp_path / "powercap", {"package-0": 0})
        assert not DramRaplProvider.available(root)
        assert "dram subdomain" in DramRaplProvider.diagnostic(root)
        with pytest.raises(RuntimeError, match="dram subdomain"):
            DramRaplProvider(root)

    def test_forced_provider_via_argument_and_env(self, tmp_path, monkeypatch):
        root = make_rapl_tree(
            tmp_path / "powercap", {"package-0": 0}, dram=0
        )
        provider = detect_provider("dram", rapl_root=root)
        assert provider.name == "dram" and provider.kind == "measured"
        monkeypatch.setenv(PROVIDER_ENV_VAR, "dram")
        assert detect_provider(rapl_root=root).name == "dram"

    def test_never_auto_selected(self, tmp_path):
        # A tree with *only* dram planes readable: auto-detection must
        # skip rapl (no package domain) and fall through the ladder,
        # not silently substitute the component reading.
        root = make_rapl_tree(
            tmp_path / "powercap", {"package-0": 0},
            subdomains=False, dram=0,
        )
        (root / "intel-rapl:0" / "energy_uj").write_text("garbage\n")
        provider = detect_provider(
            rapl_root=root, stat_path=tmp_path / "missing"
        )
        assert provider.name == "model"

    def test_provenance_records_dram_plane(self, tmp_path):
        root = make_rapl_tree(
            tmp_path / "powercap", {"package-0": 0}, dram=0
        )
        record = DramRaplProvider(root, clock=FakeClock()).provenance()
        assert record["provider"] == "dram"
        assert record["kind"] == "measured"
        assert record["domains"] == ["intel-rapl:0/dram"]


# ---------------------------------------------------------------------------
# /proc/stat provider
# ---------------------------------------------------------------------------
class TestProcStatProvider:
    def test_utilization_from_jiffy_deltas(self, tmp_path):
        clock = FakeClock()
        stat = write_proc_stat(tmp_path / "stat", [(100, 1000), (200, 1000)])
        provider = ProcStatProvider(stat, clock=clock)
        # Core 0 runs 50/100 busy, core 1 runs 100/100 busy.
        write_proc_stat(tmp_path / "stat", [(150, 1100), (300, 1100)])
        clock.advance(1.0)
        assert provider.utilization() == pytest.approx(0.75)

    def test_watts_through_cpu_power_model(self, tmp_path):
        clock = FakeClock()
        stat = write_proc_stat(tmp_path / "stat", [(0, 1000)])
        provider = ProcStatProvider(stat, clock=clock)
        idle = provider.instance.idle_watts
        write_proc_stat(tmp_path / "stat", [(100, 1100)])  # 100% busy
        clock.advance(1.0)
        busy_sample = provider.sample()
        assert busy_sample.watts > idle
        write_proc_stat(tmp_path / "stat", [(100, 1200)])  # idle interval
        clock.advance(1.0)
        assert provider.sample().watts == pytest.approx(idle)

    def test_missing_stat_unavailable(self, tmp_path):
        missing = tmp_path / "stat"
        assert not ProcStatProvider.available(missing)
        assert "cannot read" in ProcStatProvider.diagnostic(missing)
        with pytest.raises(RuntimeError, match="cannot read"):
            ProcStatProvider(missing)

    def test_no_per_core_rows_unavailable(self, tmp_path):
        stat = tmp_path / "stat"
        stat.write_text("cpu 1 2 3 4 5 6 7 8 0 0\nintr 0\n")
        assert not ProcStatProvider.available(stat)
        assert "no per-core" in ProcStatProvider.diagnostic(stat)


# ---------------------------------------------------------------------------
# Model fallback provider
# ---------------------------------------------------------------------------
class TestModelProvider:
    def test_always_available(self):
        assert ModelProvider.available()

    def test_watts_floor_is_idle(self):
        clock = FakeClock()
        cpu = FakeClock()  # process entirely idle
        provider = ModelProvider(clock=clock, cpu_clock=cpu)
        clock.advance(1.0)
        sample = provider.sample()
        assert sample.watts == pytest.approx(provider.instance.idle_watts)

    def test_busy_process_draws_more(self):
        clock = FakeClock()
        cpu = FakeClock()
        provider = ModelProvider(clock=clock, cpu_clock=cpu)
        clock.advance(1.0)
        cpu.advance(1.0)  # one core fully busy
        busy = provider.sample().watts
        assert busy > provider.instance.idle_watts

    def test_local_instance_spec_calibration_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_POWER_IDLE_WATTS", "25")
        monkeypatch.setenv("REPRO_POWER_TDP_WATTS", "80")
        spec = local_instance_spec(4)
        assert spec.idle_watts == 25.0
        assert spec.cpu.tdp_watts == 80.0
        assert spec.total_cores == 4


# ---------------------------------------------------------------------------
# Detection / fallback ladder
# ---------------------------------------------------------------------------
class TestDetection:
    def test_prefers_rapl_when_available(self, tmp_path):
        root = make_rapl_tree(tmp_path / "powercap", {"package-0": 0})
        stat = write_proc_stat(tmp_path / "stat", [(0, 100)])
        provider = detect_provider(rapl_root=root, stat_path=stat)
        assert provider.name == "rapl"

    def test_falls_back_to_procfs_without_rapl(self, tmp_path, monkeypatch):
        monkeypatch.delenv(PROVIDER_ENV_VAR, raising=False)
        stat = write_proc_stat(tmp_path / "stat", [(0, 100)])
        provider = detect_provider(
            rapl_root=tmp_path / "nope", stat_path=stat
        )
        assert provider.name == "procfs"

    def test_falls_back_to_model_without_error(self, tmp_path, monkeypatch):
        monkeypatch.delenv(PROVIDER_ENV_VAR, raising=False)
        provider = detect_provider(
            rapl_root=tmp_path / "nope", stat_path=tmp_path / "missing"
        )
        assert provider.name == "model"
        assert provider.kind == "modeled"

    def test_env_override_forces_model(self, tmp_path, monkeypatch):
        root = make_rapl_tree(tmp_path / "powercap", {"package-0": 0})
        monkeypatch.setenv(PROVIDER_ENV_VAR, "model")
        provider = detect_provider(rapl_root=root)
        assert provider.name == "model"

    def test_explicit_unavailable_request_raises(self, tmp_path):
        with pytest.raises(RuntimeError):
            detect_provider("rapl", rapl_root=tmp_path / "nope")

    def test_unknown_provider_rejected(self):
        with pytest.raises(ValueError, match="unknown power provider"):
            detect_provider("nvml")

    def test_diagnostics_cover_all_rungs(self, tmp_path):
        diag = provider_diagnostics(
            rapl_root=tmp_path / "nope", stat_path=tmp_path / "missing"
        )
        assert set(diag) == {"rapl", "dram", "procfs", "model"}
        assert diag["model"].startswith("available")


# ---------------------------------------------------------------------------
# Sampler
# ---------------------------------------------------------------------------
class TestTelemetrySampler:
    def test_background_loop_collects_samples(self):
        sampler = TelemetrySampler(
            ModelProvider(), period_s=0.01, min_run_seconds=0.0
        )
        sampler.start()
        import time as _time

        _time.sleep(0.1)
        samples = sampler.stop()
        assert len(samples) >= 3
        assert all(s.duration_s > 0 for s in samples)

    def test_total_joules_and_mean_watts(self):
        clock = FakeClock()
        sampler = TelemetrySampler(
            ScriptedProvider(clock, joules_per_second=10.0),
            clock=clock,
            min_run_seconds=0.0,
        )
        sampler.start()
        clock.advance(1.0)
        sampler.sample_now()
        clock.advance(1.0)
        sampler.stop()
        assert sampler.total_joules == pytest.approx(20.0)
        assert sampler.mean_watts == pytest.approx(10.0)

    def test_stop_flushes_final_partial_interval(self):
        clock = FakeClock()
        sampler = TelemetrySampler(
            ScriptedProvider(clock, joules_per_second=4.0),
            clock=clock,
            min_run_seconds=0.0,
        )
        sampler.start()
        clock.advance(0.25)  # shorter than any period: only the flush
        sampler.stop()
        assert sampler.total_joules == pytest.approx(1.0)

    def test_short_run_warns_once_with_duration(self):
        reset_under_sample_warnings()
        clock = FakeClock()

        def run_once():
            sampler = TelemetrySampler(
                ScriptedProvider(clock), clock=clock, min_run_seconds=10.0
            )
            sampler.start()
            clock.advance(1.5)
            sampler.stop()
            return sampler

        with pytest.warns(UnderSampledRunWarning, match="1.50 s"):
            sampler = run_once()
        assert sampler.under_sampled
        # Second short run: flagged, but no second warning.
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error", UnderSampledRunWarning)
            assert run_once().under_sampled

    def test_long_run_does_not_warn(self):
        reset_under_sample_warnings()
        clock = FakeClock()
        sampler = TelemetrySampler(
            ScriptedProvider(clock), clock=clock, min_run_seconds=10.0
        )
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error", UnderSampledRunWarning)
            sampler.start()
            clock.advance(12.0)
            sampler.stop()
        assert not sampler.under_sampled

    def test_metrics_gauges_updated(self):
        clock = FakeClock()
        metrics = MetricsRegistry()
        sampler = TelemetrySampler(
            ScriptedProvider(clock, joules_per_second=8.0),
            clock=clock,
            metrics=metrics,
            min_run_seconds=0.0,
        )
        sampler.start()
        clock.advance(2.0)
        sampler.sample_now()
        assert metrics.gauge("watts").value == pytest.approx(8.0)
        assert metrics.gauge("energy_joules").value == pytest.approx(16.0)
        sampler.stop()

    def test_final_flush_updates_gauges_on_short_runs(self):
        """A run shorter than one period must still land in the gauges."""
        clock = FakeClock()
        metrics = MetricsRegistry()
        sampler = TelemetrySampler(
            ScriptedProvider(clock, joules_per_second=8.0),
            clock=clock,
            metrics=metrics,
            min_run_seconds=0.0,
        )
        sampler.start()
        clock.advance(0.25)  # no background tick: only the stop() flush
        sampler.stop()
        assert metrics.gauge("energy_joules").value == pytest.approx(2.0)
        assert metrics.gauge("watts").value == pytest.approx(8.0)

    def test_context_manager_and_restart(self):
        clock = FakeClock()
        sampler = TelemetrySampler(
            ScriptedProvider(clock), clock=clock, min_run_seconds=0.0
        )
        with sampler:
            clock.advance(1.0)
        first = sampler.total_joules
        assert first > 0
        with sampler:  # restart clears the previous series
            clock.advance(0.5)
        assert sampler.total_joules == pytest.approx(first / 2)

    def test_double_start_and_unstarted_stop_rejected(self):
        sampler = TelemetrySampler(ModelProvider(), min_run_seconds=0.0)
        with pytest.raises(RuntimeError, match="not started"):
            sampler.stop()
        sampler.start()
        with pytest.raises(RuntimeError, match="already started"):
            sampler.start()
        sampler.stop()

    def test_provenance_and_summary_fields(self):
        clock = FakeClock()
        sampler = TelemetrySampler(
            ScriptedProvider(clock, joules_per_second=10.0),
            clock=clock,
            period_s=0.5,
            min_run_seconds=0.0,
        )
        sampler.start()
        clock.advance(2.0)
        sampler.stop()
        record = sampler.provenance()
        assert record["provider"] == "scripted"
        assert record["kind"] == "measured"
        assert record["period_s"] == 0.5
        summary = sampler.summary(steps=10)
        assert summary["joules_per_step"] == pytest.approx(2.0)
        assert summary["ts_per_s"] == pytest.approx(5.0)
        assert summary["ts_per_s_per_watt"] == pytest.approx(0.5)

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError, match="period_s"):
            TelemetrySampler(ModelProvider(), period_s=0.0)


# ---------------------------------------------------------------------------
# Attribution
# ---------------------------------------------------------------------------
class Span:
    def __init__(self, name, cat, start, end):
        self.name, self.cat = name, cat
        self.start, self.end = start, end


class TestAttribution:
    def test_fully_covered_phase_gets_all_energy(self):
        samples = [IntervalSample(0.0, 1.0, 10.0)]
        spans = [Span("Pair", "task", 0.0, 1.0)]
        result = attribute_energy(samples, spans)
        assert result.phases["Pair"].joules == pytest.approx(10.0)
        assert result.coverage == pytest.approx(1.0)
        assert UNTRACKED not in result.phases

    def test_proportional_split_between_phases(self):
        samples = [IntervalSample(0.0, 1.0, 10.0)]
        spans = [
            Span("Pair", "task", 0.0, 0.75),
            Span("Neigh", "task", 0.75, 1.0),
        ]
        result = attribute_energy(samples, spans)
        assert result.phases["Pair"].joules == pytest.approx(7.5)
        assert result.phases["Neigh"].joules == pytest.approx(2.5)

    def test_untracked_remainder_accounted(self):
        samples = [IntervalSample(0.0, 2.0, 20.0)]
        spans = [Span("Pair", "task", 0.0, 0.5)]
        result = attribute_energy(samples, spans)
        assert result.phases["Pair"].joules == pytest.approx(5.0)
        assert result.phases[UNTRACKED].joules == pytest.approx(15.0)
        assert result.coverage == pytest.approx(0.25)

    def test_span_clipped_to_sample_boundaries(self):
        samples = [IntervalSample(1.0, 2.0, 10.0)]
        spans = [Span("Pair", "task", 0.5, 1.5), Span("Pair", "task", 1.9, 2.4)]
        result = attribute_energy(samples, spans)
        # 0.5 s + 0.1 s of Pair inside the sampled second.
        assert result.phases["Pair"].joules == pytest.approx(6.0)

    def test_energy_conserved_across_samples(self):
        samples = [
            IntervalSample(0.0, 0.5, 3.0),
            IntervalSample(0.5, 1.0, 5.0),
        ]
        spans = [
            Span("Pair", "task", 0.1, 0.4),
            Span("Neigh", "task", 0.6, 0.9),
        ]
        result = attribute_energy(samples, spans)
        assert sum(p.joules for p in result.phases.values()) == pytest.approx(
            result.total_joules
        )
        assert result.total_joules == pytest.approx(8.0)

    def test_non_task_categories_ignored_by_default(self):
        samples = [IntervalSample(0.0, 1.0, 10.0)]
        spans = [
            Span("step", "step", 0.0, 1.0),
            Span("kernel.accumulate", "kernel", 0.0, 1.0),
            Span("Pair", "task", 0.0, 0.5),
        ]
        result = attribute_energy(samples, spans)
        assert set(result.phases) == {"Pair", UNTRACKED}

    def test_checkpoint_spans_attributed(self):
        samples = [IntervalSample(0.0, 1.0, 10.0)]
        spans = [Span("checkpoint.write", "checkpoint", 0.2, 0.7)]
        result = attribute_energy(samples, spans)
        assert result.phases["checkpoint.write"].joules == pytest.approx(5.0)

    def test_no_spans_everything_untracked(self):
        samples = [IntervalSample(0.0, 1.0, 7.0)]
        result = attribute_energy(samples, [])
        assert result.phases[UNTRACKED].joules == pytest.approx(7.0)
        assert result.coverage == 0.0

    def test_phase_watts_is_draw_while_busy(self):
        samples = [IntervalSample(0.0, 1.0, 10.0)]
        spans = [Span("Pair", "task", 0.0, 0.5)]
        result = attribute_energy(samples, spans)
        assert result.phases["Pair"].watts == pytest.approx(10.0)

    def test_render_and_json_roundtrip(self):
        samples = [IntervalSample(0.0, 1.0, 10.0)]
        spans = [Span("Pair", "task", 0.0, 0.6)]
        result = attribute_energy(samples, spans)
        text = render_energy_table(result, steps=10)
        assert "Pair" in text and "J/step" in text
        payload = json.loads(json.dumps(result.to_json()))
        assert payload["phases"]["Pair"]["joules"] == pytest.approx(6.0)
        assert payload["coverage"] == pytest.approx(0.6)


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------
class TestProvenance:
    def test_cgroup_v2_quota_parsed(self, tmp_path):
        v2 = tmp_path / "cpu.max"
        v2.write_text("200000 100000\n")
        assert cgroup_cpu_quota(v2_path=v2) == pytest.approx(2.0)

    def test_cgroup_v2_max_means_unlimited(self, tmp_path):
        v2 = tmp_path / "cpu.max"
        v2.write_text("max 100000\n")
        assert cgroup_cpu_quota(
            v2_path=v2, v1_quota_path=tmp_path / "q", v1_period_path=tmp_path / "p"
        ) is None

    def test_cgroup_v1_fallback(self, tmp_path):
        quota = tmp_path / "cpu.cfs_quota_us"
        period = tmp_path / "cpu.cfs_period_us"
        quota.write_text("50000\n")
        period.write_text("100000\n")
        assert cgroup_cpu_quota(
            v2_path=tmp_path / "absent",
            v1_quota_path=quota,
            v1_period_path=period,
        ) == pytest.approx(0.5)

    def test_cgroup_unknown_is_none(self, tmp_path):
        assert cgroup_cpu_quota(
            v2_path=tmp_path / "a",
            v1_quota_path=tmp_path / "b",
            v1_period_path=tmp_path / "c",
        ) is None

    def test_platform_provenance_block(self):
        record = platform_provenance()
        assert record["kernel_version"]
        assert "rapl_available" in record
        assert record["power_provider"]["provider"] in ("rapl", "procfs", "model")
        assert set(record["power_provider_diagnostics"]) == {
            "rapl", "dram", "procfs", "model",
        }
        json.dumps(record)  # must be JSON-safe for the power record


# ---------------------------------------------------------------------------
# End to end: the power CLI against a tiny functional run
# ---------------------------------------------------------------------------
class TestPowerCli:
    def test_power_command_reports_and_exports(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "energy.json"
        code = main([
            "power", "lj", "--steps", "6", "--atoms", "128",
            "--warmup", "1", "--provider", "model",
            "--report-every", "3", "--json", str(out),
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "Per-phase energy breakdown" in text
        assert "TS/s/W" in text
        report = json.loads(out.read_text())
        assert report["schema"] == "repro-bench-report/2"
        assert report["kind"] == "power"
        assert report["energy"] == {"provider": "model", "kind": "modeled"}
        assert report["joules_per_step"] > 0
        assert report["ts_per_s_per_watt"] > 0
        assert report["sampling"]["provider"] == "model"
        assert report["sampling"]["under_sampled"] is True
        assert report["attribution"]["phases"]
        assert report["platform"]["kernel_version"]

    @pytest.mark.filterwarnings("ignore:TelemetrySampler")
    @pytest.mark.parametrize("env, requested", [
        (None, DEFAULT_BACKEND), ("auto", "auto"), ("numpy_ref", "numpy_ref"),
    ])
    def test_power_record_stamps_the_backend_that_ran(
        self, tmp_path, monkeypatch, env, requested
    ):
        """``requested`` is what the environment asked for (the command
        has no --backend), ``resolved`` a registry name — not the
        tracing wrapper's ``numpy_fast+trace``, not a made-up ``auto``."""
        from repro.__main__ import main

        if env is None:
            monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        else:
            monkeypatch.setenv(BACKEND_ENV_VAR, env)
        out = tmp_path / "energy.json"
        assert main([
            "power", "lj", "--steps", "2", "--atoms", "128", "--warmup", "0",
            "--provider", "model", "--json", str(out),
        ]) == 0
        backend = json.loads(out.read_text())["backend"]
        assert backend["requested"] == requested
        assert backend["resolved"] in available_backends()
        assert backend["resolved"] == resolved_backend(env)[0]

    def test_power_command_unavailable_provider_exits_2(self, tmp_path, monkeypatch):
        from repro.__main__ import main

        # Force rapl while pointing discovery at an empty sysfs root.
        monkeypatch.setattr(
            "repro.observability.telemetry.providers.RAPL_SYSFS_ROOT",
            str(tmp_path / "nope"),
        )
        code = main(["power", "lj", "--steps", "2", "--atoms", "64",
                     "--provider", "rapl"])
        assert code == 2
