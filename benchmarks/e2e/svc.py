"""Service workloads: campaign TOML -> BatchService(2) -> certified results.

One *round* is the closed loop a campaign user sees: generated TOML text
is parsed and expanded into ``JobSpec``s, the whole matrix is submitted
and every result awaited.  ``svc_unique_small`` rounds hold ``unique``
distinct tiny jobs; ``svc_repeat_waves`` rounds submit each config
``copies`` times in one wave (answered by in-flight coalescing) and then
the same matrix again after completion (answered by the result cache).
Rounds repeat with fresh seeds until the time budget is spent and the
median round is reported.
"""

from __future__ import annotations

import hashlib
import json
import random
import threading
import time
import traceback
from contextlib import ExitStack
from itertools import pairwise
from pathlib import Path
from statistics import mean, median

from repro.campaign import parse_campaign
from repro.service import BatchService, SpoolClient, SpoolServer

from spans import Recorder, calibrated, host_probe, percentile, repeat_for

POOL_WORKERS = 2
#: Pool boots per run; ``setup_s`` is the median of all but the first,
#: which starts the first worker processes of this run cold.
BOOTS = 4
RESULT_TIMEOUT = 120.0
COPY_TAGS = ("a", "b", "c", "d")


def campaign_text(cfg: dict, first_seed: int, label: str) -> str:
    """TOML for one round: ``unique`` configs, lj/eam alternating.

    The ``tag`` axis (not part of a job's content address) is the last,
    fastest axis, so the copies of one config are submitted back to
    back while its first copy is still queued or running.
    """
    seeds = list(range(first_seed, first_seed + cfg["unique"] // 2))
    lines = [
        "[campaign]", f'name = "e2e-{label}"', f"pool_workers = {POOL_WORKERS}",
        "[base]", f"n_atoms = {cfg['n_atoms']}", f"steps = {cfg['steps']}",
        'backend = "auto"',
        "[sweep]", f"seed = {seeds}", 'benchmark = ["lj", "eam"]',
    ]
    if cfg["copies"] > 1:
        lines.append(f"tag = {json.dumps(list(COPY_TAGS[:cfg['copies']]))}")
    return "\n".join(lines) + "\n"


def _counters(svc: BatchService) -> dict:
    stats = svc.stats()

    def counter(name: str) -> int:
        return int(stats["metrics"].get(name, {}).get("value", 0))

    return {
        "executed": counter("service_cache_insertions_total"),
        "coalesced": counter("service_dedup_hits_total"),
        "served": int(stats["cache"]["hits"]),
        "respawns": int(stats["worker_respawns"]),
    }


def run_round(
    cfg: dict, svc: BatchService, first_seed: int, rec: Recorder, traced: bool
) -> dict:
    """One round; returns span index, results and the counter deltas."""
    before = _counters(svc)
    waves = 2 if cfg["copies"] > 1 else 1
    with rec.span("round") as round_span:
        with rec.span("campaign.spec.parse"):
            campaign = parse_campaign(campaign_text(cfg, first_seed, str(first_seed)))
        with rec.span("campaign.spec.expand"):
            specs = campaign.expand()
        if traced:
            for spec in specs:
                rec.wrap(spec, "cache_key", "service.spec.cache_key")
        results = []
        for _ in range(waves):
            with rec.span("wave"):
                if traced:
                    handles = []
                    for spec in specs:
                        with rec.span("service.scheduler.submit"):
                            handles.append(svc.submit(spec))
                    for handle in handles:
                        with rec.span("service.scheduler.result"):
                            results.append(handle.result(RESULT_TIMEOUT))
                else:
                    results.extend(svc.map(specs, timeout=RESULT_TIMEOUT))
    after = _counters(svc)
    executed = {r.key: r for r in results if not r.cached}
    return {
        "round": round_span,
        "specs": specs,
        "submissions": len(results),
        "executed_results": list(executed.values()),
        "digests": {(r.key, r.state_digest) for r in results},
        "delta": {k: after[k] - before[k] for k in after},
    }


def _gate(cfg: dict, facts: dict) -> list[str]:
    """Race-free invariants of one round.

    Whether a duplicate is answered by coalescing or by the cache
    depends on whether its first copy has finished; their *sum* and the
    number of executions do not, so those are the exact counts gated.
    """
    unique, copies = cfg["unique"], cfg["copies"]
    delta = facts["delta"]
    problems = []
    if len(facts["digests"]) != unique:
        problems.append(
            f"{len(facts['digests'])} distinct (key, state_digest) pairs for "
            f"{unique} unique configs"
        )
    if delta["executed"] != unique:
        problems.append(f"executed {delta['executed']} jobs, expected {unique}")
    deduped = facts["submissions"] - unique
    if delta["coalesced"] + delta["served"] != deduped:
        problems.append(
            f"coalesced {delta['coalesced']} + served {delta['served']} != {deduped}"
        )
    if copies > 1 and delta["served"] < copies * unique:
        problems.append(f"second wave served {delta['served']} < {copies * unique}")
    if delta["respawns"]:
        problems.append(f"{delta['respawns']} pool worker respawns")
    return problems


def round_layer_metrics(rec: Recorder, facts: dict) -> dict:
    """Per-layer metrics of one traced round."""
    own = rec.self_times(facts["round"])
    walls = [r.wall_seconds for r in facts["executed_results"]]
    # Only waves that executed jobs keep the pool busy.
    busy_wall = rec.duration(rec.find("wave", under=facts["round"])[0])
    submits = own["service.scheduler.submit"]
    return {
        "campaign.spec.parse_expand_ms": 1e3 * (
            sum(own["campaign.spec.parse"]) + sum(own["campaign.spec.expand"])
        ),
        "service.spec.cache_key_us": 1e6 * median(own["service.spec.cache_key"]),
        "service.scheduler.submit_us_p50": 1e6 * median(submits),
        "service.scheduler.overhead_ms_per_job": 1e3
        * (POOL_WORKERS * busy_wall - sum(walls)) / len(walls),
        "service.scheduler.coalesced": facts["delta"]["coalesced"],
        "service.cache.served": facts["delta"]["served"],
        "service.pool.util_frac": sum(walls) / (POOL_WORKERS * busy_wall),
        "service.pool.job_ms_mean": 1e3 * mean(walls),
        "service.runner.result_bytes_mean": mean(
            len(json.dumps(r.to_json())) for r in facts["executed_results"]
        ),
        "trace.coverage_frac": 1.0
        - (sum(own["round"]) + sum(own["wave"])) / rec.duration(facts["round"]),
    }


def probe_hits(svc: BatchService, specs, count: int) -> list[float]:
    """Closed-loop latency of ``count`` resubmissions of cached specs."""
    seconds = []
    for i in range(count):
        start = time.perf_counter()
        result = svc.submit(specs[i % len(specs)]).result(RESULT_TIMEOUT)
        seconds.append(time.perf_counter() - start)
        if not result.cached:
            raise RuntimeError("a cache probe was executed instead of served")
    return seconds


def probe_spool(svc: BatchService, specs, count: int, scratch: str) -> list[float]:
    """Round trip of ``count`` cache-served tickets through the file spool."""
    spool_dir = Path(scratch) / "spool"
    server = SpoolServer(spool_dir, svc, poll=0.005)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = SpoolClient(spool_dir)
    seconds = []
    try:
        for i in range(count):
            start = time.perf_counter()
            result = client.wait(
                client.submit(specs[i % len(specs)]),
                timeout=RESULT_TIMEOUT, poll=0.002,
            )
            seconds.append(time.perf_counter() - start)
            if not result.cached:
                raise RuntimeError("a spool ticket was executed instead of served")
    finally:
        server.request_stop()
        thread.join(timeout=60.0)
    if thread.is_alive():
        raise RuntimeError("spool server did not stop")
    return seconds


def _probe() -> float:
    """Host slowdown beside a boot or a round; the pool works on every core."""
    return host_probe(every_core=True)


def _boot(stack: ExitStack, rec: Recorder, cache_dir: Path) -> BatchService:
    """``BatchService(2)`` -> ``wait_ready()`` under a span; closed with ``stack``."""
    with rec.span("service.pool.boot"):
        svc = BatchService(POOL_WORKERS, cache_dir=cache_dir)
        stack.callback(svc.close)
        if not svc.wait_ready():
            raise RuntimeError("pool workers did not become ready")
    return svc


def _rate(rec: Recorder, facts: dict, calibrate: bool = True) -> float:
    """Submissions answered per (calibrated) minute of one round."""
    seconds = rec.duration(facts["round"]) * (facts["scale"] if calibrate else 1.0)
    return 60.0 * facts["submissions"] / seconds


def probe_layers(cfg, svc, specs, stack, rec, cache_dir, scratch):
    """Off the clock: cache and spool latencies on one round's keys.

    A fresh service on the same directory has an empty memory layer, so
    its first resubmission of each key is answered from disk.
    """
    probe = cfg["probe"]
    specs = list({s.cache_key(): s for s in specs}.values())
    with rec.span("probe"):
        hits = probe_hits(svc, specs, probe["memory_hits"])
        svc.close()
        svc = _boot(stack, rec, cache_dir)
        disk_hits = probe_hits(svc, specs, len(specs))
        trips = probe_spool(svc, specs, probe["spool_tickets"], scratch)
    entries = [p.stat().st_size for p in cache_dir.glob("*.json")]
    metrics = {
        "service.cache.hit_us_p50": 1e6 * median(hits),
        "service.cache.hit_us_p99": 1e6 * percentile(hits, 99),
        "service.cache.disk_hit_us_p50": 1e6 * median(disk_hits),
        "service.cache.bytes_per_entry": mean(entries),
        "service.spool.roundtrip_ms_p50": 1e3 * median(trips),
    }
    samples = {
        "service.cache.hit_us_p50": len(hits),
        "service.cache.hit_us_p99": len(hits),
        "service.cache.disk_hit_us_p50": len(disk_hits),
        "service.spool.roundtrip_ms_p50": len(trips),
    }
    return metrics, samples


def measure(
    cfg: dict, seed: int, untraced_seconds: float, traced_seconds: float,
    rec: Recorder, scratch: str,
) -> dict:
    """Boot the pool, run untraced then traced rounds, gate each round."""
    cache_dir = Path(scratch) / "cache"
    # Job seeds are the only randomness the program sees; consecutive
    # offsets from a seed-derived base keep every round's keys distinct.
    next_seed = random.Random(seed).randrange(1, 2**30)
    round_submissions = cfg["unique"] * cfg["copies"] * (2 if cfg["copies"] > 1 else 1)
    failures: list[str] = []
    attempted = failed = 0
    record: dict = {"digest_head": None}

    with ExitStack() as stack:
        svc = None
        boot_probes = [_probe()]
        for _ in range(BOOTS):
            if svc is not None:
                svc.close()
            svc = _boot(stack, rec, cache_dir)
            boot_probes.append(_probe())
        boot_walls = [rec.duration(i) for i in rec.find("service.pool.boot")][1:]
        boots = [
            calibrated(wall, *around)
            for wall, around in zip(boot_walls, pairwise(boot_probes[1:]))
        ]

        def attempt(traced: bool):
            nonlocal attempted, failed, next_seed
            first_seed, next_seed = next_seed, next_seed + cfg["unique"]
            attempted += round_submissions
            before = _probe()
            try:
                facts = run_round(cfg, svc, first_seed, rec, traced)
            except Exception:  # a failed round fails all its submissions
                failed += round_submissions
                failures.append(traceback.format_exc(limit=4))
                return None
            facts["probes"] = (before, _probe())
            # Calibrated seconds per wall second while this round ran.
            facts["scale"] = calibrated(1.0, *facts["probes"])
            problems = _gate(cfg, facts)
            if problems:
                failed += 1
                failures.append("; ".join(problems))
                return None
            return facts

        rounds = [r for r in repeat_for(untraced_seconds, 2, lambda _: attempt(False)) if r]
        traced_rounds = []
        if traced_seconds > 0:
            traced_rounds = [
                r for r in repeat_for(traced_seconds, 1, lambda _: attempt(True)) if r
            ]

        if rounds:
            def end_to_end(calibrate: bool) -> dict:
                rate = median(_rate(rec, r, calibrate) for r in rounds)
                return {
                    "ts_per_s": rate / 60.0 * cfg["steps"],
                    # The build -> finalize span as the pool worker timed it.
                    "job_wall_s": median(
                        median(res.wall_seconds for res in r["executed_results"])
                        * (r["scale"] if calibrate else 1.0)
                        for r in rounds
                    ),
                    "jobs_per_min": rate,
                    "setup_s": median(boots if calibrate else boot_walls),
                }

            record["end_to_end"] = end_to_end(calibrate=True)
            record["end_to_end_wall"] = end_to_end(calibrate=False)
            record["host_slowdown"] = median(p for r in rounds for p in r["probes"])
            record["raw"] = {
                "repeats": len(rounds),
                "jobs_per_min": [_rate(rec, r) for r in rounds],
                "setup_s": boots,
                "round_wall_s": [rec.duration(r["round"]) for r in rounds],
                "round_probes": [r["probes"] for r in rounds],
                "boot_wall_s": boot_walls,
                "boot_probes": boot_probes,
            }
            record["counts"] = dict(rounds[0]["delta"], unique=cfg["unique"])
            # Stands in for an engine job's chain head: every result's
            # final-state digest of the first round, order-independent.
            record["digest_head"] = _digest_of(rounds[0]["digests"])
        if rounds and traced_rounds:
            per_round = [round_layer_metrics(rec, r) for r in traced_rounds]
            layers = {k: median(m[k] for m in per_round) for k in per_round[0]}
            layers["service.pool.boot_s"] = median(boot_walls)
            layers["service.pool.respawns"] = _counters(svc)["respawns"]
            layers["trace.overhead_frac"] = 1.0 - median(
                _rate(rec, r) for r in traced_rounds
            ) / record["end_to_end"]["jobs_per_min"]
            layers["host.slowdown"] = record["host_slowdown"]
            record["raw"]["traced_repeats"] = len(traced_rounds)
            record["samples"] = {
                "service.spec.cache_key_us": round_submissions,
                "service.scheduler.submit_us_p50": round_submissions,
            }
            if "probe" in cfg:
                attempted += 1
                try:
                    probed, samples = probe_layers(
                        cfg, svc, traced_rounds[-1]["specs"],
                        stack, rec, cache_dir, scratch,
                    )
                except Exception:
                    failed += 1
                    failures.append(traceback.format_exc(limit=4))
                else:
                    layers.update(probed)
                    record["samples"].update(samples)
            record["per_layer"] = layers
    record.update(attempted=attempted, failed=failed, failures=failures)
    return record


def _digest_of(pairs) -> str:
    digest = hashlib.sha256()
    for key, state in sorted(pairs):
        digest.update(f"{key}:{state}\n".encode())
    return digest.hexdigest()
