#!/usr/bin/env python3
"""Validate bench --json output against the schema documented in DESIGN.md.

Usage: check_bench_json.py FILE [FILE...]

Exits non-zero (listing every violation) if any file fails. Intended for CI
(the bench-smoke job) and for local use after editing a bench.

Schema (schema_version 1):
  top level: object with exactly the keys
    bench           non-empty string
    schema_version  the integer 1
    config          object; values are string, number, or bool
    results         non-empty array of objects; values are string or number
    metrics         object; values are finite numbers; keys are dotted
                    lower_snake metric names (e.g. "vm.faults")

  Additional semantic rules:
    fault.* / retry.*   injection and retry counters; must be non-negative
                        (present whenever a machine publishes its registry,
                        zero when fault injection is disabled)
    audit.violations    invariant-auditor tally; must be exactly 0 -- any
                        machine that published its registry ran with the
                        auditor attached, so a non-zero count is a real
                        cross-subsystem accounting bug, never noise
    wall_clock.*        real (host) time measurements; must be strictly
                        positive -- a zero throughput means the bench's timed
                        section collapsed (dead-code-eliminated or mis-timed)
    proc.*              per-process attribution counters from the scheduler;
                        when present (unprefixed), each family must sum
                        exactly to the machine total it partitions:
                          sum(proc.<name>.faults)          == vm.faults
                          sum(proc.<name>.compressed_hits) == vm.faults_from_ccache
                          sum(proc.<name>.swap_faults)     == vm.faults_from_swap
    fig5_multiprogramming  must publish mix.* metrics (mix.elapsed_ns,
                        mix.processes, per-process mix.<name>.run_ns/faults)
                        from its representative multiprogrammed cell
    ablation_codec      must report one row per registered codec (adaptive,
                        fpc, lzrw1, lzrw1a, rle, store, wk) with a positive
                        compression ratio and strictly positive host
                        compress/decompress throughput plus the three
                        simulated thrash cell times; the adaptive row must
                        carry the probe's pick_* counters with a non-zero sum
                        (rows without a codec key, such as the LZRW1
                        hash-table sweep, are not held to these rules)
    pipeline.* / prefetch.*  async-pipeline counters; non-negative, and every
                        issued speculation must be accounted for after the
                        bench drains the pipeline:
                          prefetch.hits + prefetch.misses == prefetch.issued
                          pipeline.batches_completed == pipeline.batches_submitted
                          pipeline.inflight == 0
    ablation_pipeline   must publish the headline thrashing-curve pair with
                        the pipelined machine strictly faster than the
                        synchronous baseline (pipeline.curve.pipelined_ms <
                        pipeline.curve.sync_ms), at least one write-behind
                        batch, and at least one speculative issue
    kv.*                KV service workload counters; must be non-negative,
                        and a snapshot that carries them must conserve
                        requests: kv.gets + kv.sets == kv.requests ==
                        kv.request_ns.count, kv.validation_failures == 0
    swap.clustered.coresidents_dropped  corrupt-coresident discard tally;
                        must be non-negative when present
    tier.*              tier cascade counters; non-negative, and any
                        snapshot naming tiers (tier.<name>.level) must carry
                        every tier's demotions_in / demotions_out and
                        conserve them across every adjacent boundary:
                          tier[i].demotions_out == tier[i+1].demotions_in
                        with nothing crossing the stack's ends (the top tier
                        receives no demotions, the bottom emits none)
    ablation_tier       must publish the crossover frontier with an interior
                        DRAM split strictly beating both degenerate machines
                        (tier.frontier.best_ms < tier.frontier.all_dram_ms
                        and < tier.frontier.all_ssd_ms, 0 < best_split < 1)
    fig6_service        must report every backend x {sync, pipelined} cell
                        with a sane tail (0 < p50 <= p99 <= p999), exact
                        request conservation (gets + sets == requests, all
                        served), positive throughput, zero validation
                        failures; the headline knee pair must show the
                        pipelined machine's p99 no worse than sync
                        (service.pipelined_p99_ns <= service.sync_p99_ns)
"""

import json
import math
import re
import sys

METRIC_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)+$")
TOP_KEYS = {"bench", "schema_version", "config", "results", "metrics"}
# Monotonic counter families: a negative value can only be a bug. (tier.*
# includes a few gauges — level, pages, sub_blocks — but none may go negative.)
COUNTER_PREFIXES = ("fault.", "retry.", "recovery.", "pipeline.", "prefetch.", "kv.",
                    "tier.")
# Counter gauges that are not part of a whole-family prefix but must still
# never go negative when present.
COUNTER_METRICS = ("swap.clustered.coresidents_dropped", "swap.lfs.coresidents_dropped")
# Every backend x mode cell fig6_service must cover, and the numeric fields
# each of its rows must carry.
FIG6_BACKENDS = ("clustered", "fixed_compressed", "lfs")
FIG6_MODES = ("sync", "pipelined")
FIG6_ROW_FIELDS = (
    "memory_mb", "requests", "gets", "sets", "p50_ns", "p99_ns", "p999_ns",
    "ops_per_sec", "validation_failures",
)
# The full crash-recovery metric set crash_soak must publish (grid totals;
# see bench/crash_soak.cc and RecoveryStats in src/core/machine.h).
CRASH_SOAK_METRICS = (
    "recovery.mounts",
    "recovery.pages_recovered",
    "recovery.pages_lost",
    "recovery.orphans_discarded",
    "recovery.journal_replays",
    "recovery.checkpoint_loads",
    "recovery.torn_writes_detected",
    "recovery.mount_ns",
    "recovery.content_mismatches",
    "audit.violations",
)
# The full codec suite ablation_codec must cover (see src/compress/registry.cc
# KnownCodecNames()) and the fields every per-codec row must carry.
ABLATION_CODEC_NAMES = ("adaptive", "fpc", "lzrw1", "lzrw1a", "rle", "store", "wk")
ABLATION_CODEC_ROW_FIELDS = (
    "ratio_pct", "compress_mbps", "decompress_mbps",
    "sim_sparse_ns", "sim_text_ns", "sim_pointer_ns",
)
ABLATION_ADAPTIVE_PICKS = ("pick_store", "pick_fpc", "pick_lzrw1")


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def is_counter_metric(name):
    # Benches may prefix a machine label (e.g. "cc_rw.fault.pages_lost").
    return name.startswith(COUNTER_PREFIXES) or any(
        f".{p}" in name for p in COUNTER_PREFIXES) or any(
        name == m or name.endswith(f".{m}") for m in COUNTER_METRICS)


def validate(path):
    errors = []

    def err(msg):
        errors.append(f"{path}: {msg}")

    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"{path}: unreadable or invalid JSON: {e}"]

    if not isinstance(doc, dict):
        return [f"{path}: top level must be an object"]

    missing = TOP_KEYS - doc.keys()
    extra = doc.keys() - TOP_KEYS
    if missing:
        err(f"missing top-level keys: {sorted(missing)}")
    if extra:
        err(f"unexpected top-level keys: {sorted(extra)}")

    bench = doc.get("bench")
    if not isinstance(bench, str) or not bench:
        err('"bench" must be a non-empty string')

    if doc.get("schema_version") != 1 or isinstance(doc.get("schema_version"), bool):
        err(f'"schema_version" must be 1, got {doc.get("schema_version")!r}')

    config = doc.get("config")
    if not isinstance(config, dict):
        err('"config" must be an object')
    else:
        for k, v in config.items():
            if not (isinstance(v, (str, bool)) or is_number(v)):
                err(f'config["{k}"] must be string, number, or bool, got {type(v).__name__}')

    results = doc.get("results")
    if not isinstance(results, list):
        err('"results" must be an array')
    elif not results:
        err('"results" must not be empty')
    else:
        for i, row in enumerate(results):
            if not isinstance(row, dict):
                err(f"results[{i}] must be an object")
                continue
            if not row:
                err(f"results[{i}] must not be empty")
            for k, v in row.items():
                if not (isinstance(v, str) or is_number(v)):
                    err(f'results[{i}]["{k}"] must be string or number, '
                        f"got {type(v).__name__}")
                if is_number(v) and not math.isfinite(v):
                    err(f'results[{i}]["{k}"] must be finite, got {v}')

    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        err('"metrics" must be an object')
    else:
        for k, v in metrics.items():
            if not METRIC_NAME_RE.match(k):
                err(f'metric name "{k}" is not dotted lower_snake')
            if not is_number(v):
                err(f'metrics["{k}"] must be a number, got {type(v).__name__}')
            elif not math.isfinite(v):
                err(f'metrics["{k}"] must be finite, got {v}')
            elif v < 0 and is_counter_metric(k):
                err(f'metrics["{k}"] is a counter and must be non-negative, got {v}')
            elif k.startswith("wall_clock.") and v <= 0:
                err(f'metrics["{k}"] is a wall-clock measurement and must be '
                    f"positive, got {v}")
            elif (k == "audit.violations" or k.endswith(".audit.violations")) and v != 0:
                err(f'metrics["{k}"] must be 0 -- the invariant auditor found '
                    f"{v} violation(s)")

    # Per-process attribution: when a snapshot carries the scheduler's
    # unprefixed proc.* counters, each family must partition the machine total
    # it attributes -- the scheduler delta-snapshots the authoritative
    # counters around every quantum, so any mismatch is an accounting bug.
    if isinstance(metrics, dict):
        proc_sums = {}
        for k, v in metrics.items():
            m = re.match(r"^proc\.[a-z0-9_]+\.([a-z0-9_]+)$", k)
            if m and is_number(v):
                proc_sums[m.group(1)] = proc_sums.get(m.group(1), 0) + v
        for field, total in (("faults", "vm.faults"),
                             ("compressed_hits", "vm.faults_from_ccache"),
                             ("swap_faults", "vm.faults_from_swap")):
            if field in proc_sums and total in metrics:
                if proc_sums[field] != metrics[total]:
                    err(f"sum(proc.*.{field}) = {proc_sums[field]} but "
                        f'metrics["{total}"] = {metrics[total]} -- per-process '
                        f"attribution must partition the machine total exactly")

    if bench == "crash_soak":
        if isinstance(metrics, dict):
            for name in CRASH_SOAK_METRICS:
                v = metrics.get(name)
                if not is_number(v):
                    err(f'crash_soak must publish numeric metrics["{name}"]')
                elif v < 0:
                    err(f'metrics["{name}"] must be non-negative, got {v}')
            # A soak that never mounted a recovered machine, or whose
            # differential check found divergent bytes, proves nothing.
            if is_number(metrics.get("recovery.mounts")) and metrics["recovery.mounts"] <= 0:
                err("crash_soak recovered no machine -- recovery.mounts must be positive")
            if is_number(metrics.get("recovery.content_mismatches")) and \
                    metrics["recovery.content_mismatches"] != 0:
                err(f'metrics["recovery.content_mismatches"] must be 0 -- recovered '
                    f'pages diverged from every written version')
        if isinstance(results, list):
            for i, row in enumerate(results):
                if not isinstance(row, dict):
                    continue
                if is_number(row.get("violations")) and row["violations"] != 0:
                    err(f"results[{i}] carries {row['violations']} audit violation(s)")
                if is_number(row.get("content_mismatches")) and row["content_mismatches"] != 0:
                    err(f"results[{i}] carries {row['content_mismatches']} content "
                        f"mismatch(es)")

    if bench == "fig5_multiprogramming" and isinstance(metrics, dict):
        if not any(k.startswith("mix.") for k in metrics):
            err("fig5_multiprogramming must publish mix.* metrics from its "
                "representative multiprogrammed cell")
        for name in ("mix.elapsed_ns", "mix.processes"):
            if name not in metrics:
                err(f'fig5_multiprogramming must publish metrics["{name}"]')
        if not any(k.startswith("proc.") for k in metrics):
            err("fig5_multiprogramming snapshot must include per-process "
                "proc.* counters")

    if bench == "ablation_codec" and isinstance(results, list):
        by_codec = {}
        for i, row in enumerate(results):
            if isinstance(row, dict) and isinstance(row.get("codec"), str):
                by_codec[row["codec"]] = (i, row)
        for name in ABLATION_CODEC_NAMES:
            if name not in by_codec:
                err(f'ablation_codec must report a row with codec="{name}"')
                continue
            i, row = by_codec[name]
            for field in ABLATION_CODEC_ROW_FIELDS:
                v = row.get(field)
                if not is_number(v):
                    err(f'results[{i}] (codec={name}) must carry numeric '
                        f'"{field}"')
                elif v <= 0:
                    err(f'results[{i}] (codec={name})["{field}"] must be '
                        f"strictly positive, got {v}")
        if "adaptive" in by_codec:
            i, row = by_codec["adaptive"]
            picks = []
            for field in ABLATION_ADAPTIVE_PICKS:
                v = row.get(field)
                if not is_number(v) or v < 0:
                    err(f'results[{i}] (codec=adaptive) must carry '
                        f'non-negative "{field}"')
                else:
                    picks.append(v)
            if picks and sum(picks) <= 0:
                err("ablation_codec adaptive row pick_* counts must sum to a "
                    "positive value -- the probe never ran")
        if isinstance(metrics, dict):
            for name in ABLATION_CODEC_NAMES:
                for kind in ("compress", "decompress"):
                    key = f"wall_clock.{kind}_mbps.{name}"
                    if key not in metrics:
                        err(f'ablation_codec must publish metrics["{key}"]')

    # Async-pipeline conservation: benches publish these counters only after
    # Machine::DrainPipeline(), so a dangling speculation or in-flight batch
    # is an accounting bug, not a timing window.
    if isinstance(metrics, dict):
        pf = [metrics.get(k) for k in
              ("prefetch.hits", "prefetch.misses", "prefetch.issued")]
        if all(is_number(v) for v in pf) and pf[0] + pf[1] != pf[2]:
            err(f"prefetch.hits + prefetch.misses = {pf[0] + pf[1]} but "
                f"prefetch.issued = {pf[2]} -- every drained speculation must "
                f"be a hit or a miss")
        wb = [metrics.get(k) for k in
              ("pipeline.batches_completed", "pipeline.batches_submitted")]
        if all(is_number(v) for v in wb) and wb[0] != wb[1]:
            err(f"pipeline.batches_completed = {wb[0]} but "
                f"pipeline.batches_submitted = {wb[1]} -- drained write-behind "
                f"must retire every batch")
        inflight = metrics.get("pipeline.inflight")
        if is_number(inflight) and inflight != 0:
            err(f'metrics["pipeline.inflight"] must be 0 after a drain, '
                f"got {inflight}")

    # Tier flow conservation: a snapshot naming tiers carries each tier's
    # demotion counters from one machine, so every page that left tier i
    # downward must have arrived at tier i+1, and nothing may cross the ends
    # of the stack. A missing counter fails: it would hide a broken boundary.
    if isinstance(metrics, dict):
        tiers = []
        for k, v in metrics.items():
            m = re.match(r"^tier\.([a-z0-9_]+)\.level$", k)
            if m and is_number(v):
                tiers.append((v, m.group(1)))
        tiers.sort()
        flows = {}
        for _, name in tiers:
            for field in ("demotions_in", "demotions_out"):
                v = metrics.get(f"tier.{name}.{field}")
                if is_number(v):
                    flows[name, field] = v
                else:
                    err(f'snapshot names tier "{name}" but lacks numeric '
                        f'metrics["tier.{name}.{field}"]')
        for (_, a), (_, b) in zip(tiers, tiers[1:]):
            dout, din = flows.get((a, "demotions_out")), flows.get((b, "demotions_in"))
            if dout is not None and din is not None and dout != din:
                err(f"tier boundary {a}/{b}: demotions_out = {dout} but "
                    f"demotions_in = {din} -- a demoted page left one tier "
                    f"without arriving at the next")
        if tiers:
            for name, field in ((tiers[0][1], "demotions_in"), (tiers[-1][1], "demotions_out")):
                v = flows.get((name, field))
                if v is not None and v != 0:
                    err(f'metrics["tier.{name}.{field}"] must be 0 -- flow '
                        f"crossed the end of the tier stack, got {v}")

    # KV service conservation: any snapshot carrying the kv.* family must
    # account every request exactly once in both the counters and the latency
    # histogram, and must have served all of them correctly.
    if isinstance(metrics, dict) and "kv.requests" in metrics:
        kv = [metrics.get(k) for k in ("kv.gets", "kv.sets", "kv.requests")]
        if all(is_number(v) for v in kv) and kv[0] + kv[1] != kv[2]:
            err(f"kv.gets + kv.sets = {kv[0] + kv[1]} but kv.requests = "
                f"{kv[2]} -- every request is exactly one get or one set")
        hist_count = metrics.get("kv.request_ns.count")
        if is_number(hist_count) and hist_count != metrics["kv.requests"]:
            err(f"kv.request_ns.count = {hist_count} but kv.requests = "
                f"{metrics['kv.requests']} -- every request must observe "
                f"exactly one latency sample")
        vf = metrics.get("kv.validation_failures")
        if is_number(vf) and vf != 0:
            err(f'metrics["kv.validation_failures"] must be 0 -- a get '
                f"returned a corrupted or stale object header, got {vf}")

    if bench == "fig6_service":
        if isinstance(results, list):
            cells = set()
            for i, row in enumerate(results):
                if not isinstance(row, dict):
                    continue
                backend, mode = row.get("backend"), row.get("mode")
                if isinstance(backend, str) and isinstance(mode, str):
                    cells.add((backend, mode))
                for field in FIG6_ROW_FIELDS:
                    if not is_number(row.get(field)):
                        err(f'results[{i}] must carry numeric "{field}"')
                tail = [row.get(k) for k in ("p50_ns", "p99_ns", "p999_ns")]
                if all(is_number(v) for v in tail):
                    if tail[0] <= 0:
                        err(f"results[{i}] p50_ns must be positive, got {tail[0]}")
                    if not tail[0] <= tail[1] <= tail[2]:
                        err(f"results[{i}] latency tail must be monotone: "
                            f"p50 {tail[0]} <= p99 {tail[1]} <= p999 {tail[2]}")
                reqs = [row.get(k) for k in ("gets", "sets", "requests")]
                if all(is_number(v) for v in reqs):
                    if reqs[2] <= 0:
                        err(f"results[{i}] served no requests")
                    if reqs[0] + reqs[1] != reqs[2]:
                        err(f"results[{i}] gets + sets = {reqs[0] + reqs[1]} "
                            f"but requests = {reqs[2]}")
                if is_number(row.get("ops_per_sec")) and row["ops_per_sec"] <= 0:
                    err(f"results[{i}] ops_per_sec must be positive, got "
                        f"{row['ops_per_sec']}")
                if is_number(row.get("validation_failures")) and \
                        row["validation_failures"] != 0:
                    err(f"results[{i}] carries {row['validation_failures']} "
                        f"validation failure(s)")
            for backend in FIG6_BACKENDS:
                for mode in FIG6_MODES:
                    if (backend, mode) not in cells:
                        err(f"fig6_service must report a ({backend}, {mode}) "
                            f"cell -- the backend x mode grid is incomplete")
        if isinstance(metrics, dict):
            sync_p99 = metrics.get("service.sync_p99_ns")
            piped_p99 = metrics.get("service.pipelined_p99_ns")
            if not (is_number(sync_p99) and sync_p99 > 0):
                err('fig6_service must publish positive '
                    'metrics["service.sync_p99_ns"]')
            if not (is_number(piped_p99) and piped_p99 > 0):
                err('fig6_service must publish positive '
                    'metrics["service.pipelined_p99_ns"]')
            if is_number(sync_p99) and is_number(piped_p99) and \
                    piped_p99 > sync_p99:
                err(f"fig6_service pipelined p99 must be no worse than sync "
                    f"at the headline memory pressure, got {piped_p99} > "
                    f"{sync_p99}")
            if "kv.requests" not in metrics:
                err("fig6_service snapshot must include the kv.* service "
                    "counters from its headline cell")

    if bench == "ablation_pipeline" and isinstance(metrics, dict):
        sync_ms = metrics.get("pipeline.curve.sync_ms")
        piped_ms = metrics.get("pipeline.curve.pipelined_ms")
        if not (is_number(sync_ms) and sync_ms > 0):
            err('ablation_pipeline must publish positive '
                'metrics["pipeline.curve.sync_ms"]')
        if not (is_number(piped_ms) and piped_ms > 0):
            err('ablation_pipeline must publish positive '
                'metrics["pipeline.curve.pipelined_ms"]')
        if is_number(sync_ms) and is_number(piped_ms) and piped_ms >= sync_ms:
            err(f"ablation_pipeline pipelined machine must beat the "
                f"synchronous baseline on the headline curve cell, got "
                f"{piped_ms} >= {sync_ms}")
        for name in ("pipeline.batches_submitted", "prefetch.issued"):
            v = metrics.get(name)
            if not (is_number(v) and v >= 1):
                err(f'ablation_pipeline must publish metrics["{name}"] >= 1 '
                    f"-- the pipeline never engaged")

    if bench == "ablation_tier" and isinstance(metrics, dict):
        frontier = {}
        for field in ("best_ms", "all_dram_ms", "all_ssd_ms", "best_split"):
            v = metrics.get(f"tier.frontier.{field}")
            if not (is_number(v) and v > 0):
                err(f'ablation_tier must publish positive '
                    f'metrics["tier.frontier.{field}"]')
            else:
                frontier[field] = v
        if "best_split" in frontier and not 0 < frontier["best_split"] < 1:
            err(f"ablation_tier best_split must be an interior DRAM share in "
                f"(0, 1), got {frontier['best_split']}")
        if {"best_ms", "all_dram_ms", "all_ssd_ms"} <= frontier.keys():
            if frontier["best_ms"] >= frontier["all_dram_ms"]:
                err(f"ablation_tier interior split must beat the all-DRAM "
                    f"machine, got {frontier['best_ms']} >= "
                    f"{frontier['all_dram_ms']}")
            if frontier["best_ms"] >= frontier["all_ssd_ms"]:
                err(f"ablation_tier interior split must beat the all-SSD "
                    f"machine, got {frontier['best_ms']} >= "
                    f"{frontier['all_ssd_ms']}")
        if not any(re.match(r"^tier\.[a-z0-9_]+\.level$", k) for k in metrics):
            err("ablation_tier snapshot must include the tier.* metric "
                "families from its representative tiered cell")

    return errors


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    all_errors = []
    for path in argv[1:]:
        errs = validate(path)
        if errs:
            all_errors.extend(errs)
        else:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
            print(f"OK {path}: bench={doc['bench']} "
                  f"results={len(doc['results'])} metrics={len(doc['metrics'])}")
    for e in all_errors:
        print(f"FAIL {e}", file=sys.stderr)
    return 1 if all_errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
