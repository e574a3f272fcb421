"""Background power-sampling loop at the paper's 0.5 s cadence.

:class:`TelemetrySampler` owns one :class:`~repro.observability.
telemetry.providers.PowerProvider` and polls it from a daemon thread
every :data:`SAMPLING_PERIOD_S` seconds — the
cadence the paper's ``powerstat``/``nvidia-smi`` loop used.  Samples
are energy *intervals* on the tracer's clock, so they can later be
intersected with span timelines for per-phase attribution.

Methodology guards (the LAMMPS time-measurement note in PAPERS.md is
the reference for why these matter):

* runs shorter than :data:`MIN_RUN_SECONDS` still return their series
  but raise a loud, once-per-process :class:`UnderSampledRunWarning`
  (the performance model's emulated sampler raises it too), and the
  report carries ``under_sampled: true`` so downstream consumers can
  gate on it;
* ``stop()`` flushes a final partial interval, so total joules cover
  the whole run even when it ends mid-period;
* the provider's clock and the tracer's clock default to the same
  ``time.perf_counter`` timebase.
"""

from __future__ import annotations

import threading
import time
import warnings

from repro.observability.telemetry.providers import IntervalSample, PowerProvider

__all__ = [
    "TelemetrySampler",
    "SAMPLING_PERIOD_S",
    "MIN_RUN_SECONDS",
    "UnderSampledRunWarning",
    "warn_under_sampled",
    "reset_under_sample_warnings",
]

#: The framework's fixed power sampling period (Section 4.2).
SAMPLING_PERIOD_S = 0.5

#: Minimum run duration the methodology requires so that enough power
#: samples land inside the measurement window.
MIN_RUN_SECONDS = 10.0


class UnderSampledRunWarning(RuntimeWarning):
    """A power-sampled run was shorter than :data:`MIN_RUN_SECONDS`.

    The series is still returned — short smoke runs are legitimate — but
    the Section 4.2 methodology (and the Gromacs energy-efficiency paper
    it leans on) says too few 0.5 s samples make the average watts, and
    anything derived from them, statistically meaningless.  Consumers
    should surface the flag rather than quietly report the number.
    """


#: Process-wide dedup sets so the under-sampling warning fires once per
#: call site kind, not once per benchmark window (a --quick bench run
#: takes dozens of short windows).
_WARNED_SITES: set[str] = set()


def warn_under_sampled(site: str, duration_s: float, minimum: float) -> bool:
    """Emit :class:`UnderSampledRunWarning` once per process per ``site``.

    Returns ``True`` when the warning was actually raised (first time).
    """
    if site in _WARNED_SITES:
        return False
    _WARNED_SITES.add(site)
    warnings.warn(
        f"{site}: run lasted {duration_s:.2f} s, below the "
        f"{minimum:.0f} s the Section 4.2 power-sampling methodology "
        "requires — the energy/watts figures are under-sampled and "
        "should not be compared across runs",
        UnderSampledRunWarning,
        stacklevel=3,
    )
    return True


def reset_under_sample_warnings() -> None:
    """Re-arm the once-per-process under-sampling warnings (tests)."""
    _WARNED_SITES.clear()


class TelemetrySampler:
    """Samples a power provider on a fixed period in the background.

    Parameters
    ----------
    provider:
        The :class:`PowerProvider` to poll, as
        :func:`~repro.observability.telemetry.providers.detect_provider`
        resolved it.
    period_s:
        Sampling period; defaults to the paper's 0.5 s.
    clock:
        Injectable time source for tests (must match the provider's).
    """

    def __init__(
        self,
        provider: PowerProvider,
        *,
        period_s: float = SAMPLING_PERIOD_S,
        clock=time.perf_counter,
    ) -> None:
        if period_s <= 0:
            raise ValueError("period_s must be positive")
        self.provider = provider
        self.period_s = float(period_s)
        self._clock = clock
        self._samples: list[IntervalSample] = []
        self._lock = threading.Lock()
        self._stop_event = threading.Event()
        self._thread: threading.Thread | None = None
        self._t_start: float | None = None
        self._t_stop: float | None = None
        self.under_sampled = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "TelemetrySampler":
        if self._thread is not None:
            raise RuntimeError("sampler already started")
        self._samples.clear()
        self.under_sampled = False
        self._t_stop = None
        self.provider.reset()
        self._t_start = self._clock()
        self._stop_event.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-telemetry", daemon=True
        )
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop_event.wait(self.period_s):
            self.sample_now()

    def sample_now(self) -> IntervalSample:
        """Take one sample synchronously (also used by the loop)."""
        sample = self.provider.sample()
        with self._lock:
            self._samples.append(sample)
        return sample

    def stop(self) -> list[IntervalSample]:
        """Stop the loop, flush the final partial interval, validate.

        Returns the full sample series.  Short runs warn (once per
        process) instead of silently handing back an under-sampled
        series — the fix ISSUE 7 pins.
        """
        if self._thread is None:
            raise RuntimeError("sampler not started")
        self._stop_event.set()
        self._thread.join()
        self._thread = None
        # Flush whatever the last full period did not cover.
        final = self.provider.sample()
        if final.duration_s > 0:
            with self._lock:
                self._samples.append(final)
        self._t_stop = self._clock()
        duration = self.duration_s
        if duration < MIN_RUN_SECONDS:
            self.under_sampled = True
            warn_under_sampled("TelemetrySampler", duration, MIN_RUN_SECONDS)
        return self.samples

    def __enter__(self) -> "TelemetrySampler":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def samples(self) -> list[IntervalSample]:
        with self._lock:
            return list(self._samples)

    @property
    def total_joules(self) -> float:
        with self._lock:
            return sum(s.joules for s in self._samples)

    @property
    def duration_s(self) -> float:
        if self._t_start is None:
            return 0.0
        end = self._t_stop if self._t_stop is not None else self._clock()
        return end - self._t_start

    @property
    def mean_watts(self) -> float:
        duration = self.duration_s
        return self.total_joules / duration if duration > 0 else 0.0

    def provenance(self) -> dict:
        """JSON-safe record of how these numbers were produced."""
        record = dict(self.provider.provenance())
        record.update(
            period_s=self.period_s,
            n_samples=len(self.samples),
            duration_s=self.duration_s,
            min_run_seconds=MIN_RUN_SECONDS,
            under_sampled=self.under_sampled,
        )
        return record

    def summary(self, *, steps: int | None = None) -> dict:
        """Totals plus (optionally) per-step efficiency figures.

        ``ts_per_s_per_watt`` is ``None`` unless the provider's joules
        are ``measured``: TS/s/W over estimated or modeled watts is not
        a metric.
        """
        duration = self.duration_s
        out = {
            "joules": self.total_joules,
            "duration_s": duration,
            "mean_watts": self.mean_watts,
            **self.provenance(),
        }
        if steps:
            out["joules_per_step"] = self.total_joules / steps
            ts_per_s = steps / duration if duration > 0 else 0.0
            out["ts_per_s"] = ts_per_s
            watts = self.mean_watts
            if self.provider.kind != "measured":
                out["ts_per_s_per_watt"] = None
            else:
                out["ts_per_s_per_watt"] = ts_per_s / watts if watts > 0 else 0.0
        return out
