#!/usr/bin/env python3
"""Validate bench --json output against the schema documented in DESIGN.md.

Usage: check_bench_json.py FILE [FILE...]

Prints "OK <file>: ..." for each valid file and exits 0. Otherwise lists
every violation on stderr and exits 1. Without a FILE, prints this and exits 2.

Shape (schema_version 1): the top level is an object with exactly the keys
  bench           non-empty string
  schema_version  the integer 1
  config          object; values are string, number, or bool
  results         non-empty array of non-empty objects; values are string or
                  finite number
  metrics         object; keys are dotted lower_snake names (e.g. "vm.faults"),
                  values are finite numbers

Every semantic gate is a row of RULES below, checked by one loop. Two gates
are small functions: per-process counters partition the machine totals
(check_proc), and tier demotions are conserved down the cascade (check_tiers).
"""

import json
import math
import operator
import re
import sys

METRIC_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)+$")
TOP_KEYS = {"bench", "schema_version", "config", "results", "metrics"}
# The registered codecs (src/compress/registry.cc) and the adaptive probe's picks.
CODECS = ("adaptive", "fpc", "lzrw1", "lzrw1a", "rle", "store", "wk")
PICKS = ("pick_store", "pick_fpc", "pick_lzrw1")

# A rule (scope, lhs names, op, rhs) requires sum(lhs) op rhs, where rhs is a
# tuple of names (compared by its sum) or a constant. Scopes:
#   "*"                 the metrics of every document; the rule applies only
#                       when every name it uses is present
#   "<bench>"           that bench's metrics; every name must be present
#   "<bench>[]"         each results row of that bench; likewise
#   "<bench>[k=v,...]"  the results rows with those field values; at least
#                       one must exist
# A name "~<regex>" stands for each metric whose name matches; under a bench
# scope at least one must match.
RULES = [
    # Counters never go negative, also behind a machine label
    # ("cc_rw.fault.pages_lost"). Wall-clock figures are positive: 0 means the
    # timed section collapsed. A machine that published its registry ran
    # audited, so any violation is a real cross-subsystem accounting bug.
    ("*", (r"~(^|\.)(fault|retry|recovery|pipeline|prefetch|kv|tier)\.",), ">=", 0),
    ("*", (r"~(^|\.)swap\.(clustered|lfs)\.coresidents_dropped$",), ">=", 0),
    ("*", (r"~^wall_clock\.",), ">", 0),
    ("*", (r"~(^|\.)audit\.violations$",), "==", 0),
    # Benches drain the pipeline before their snapshot: every speculation is a
    # hit or a miss, and every write-behind batch has retired.
    ("*", ("prefetch.hits", "prefetch.misses"), "==", ("prefetch.issued",)),
    ("*", ("pipeline.batches_completed",), "==", ("pipeline.batches_submitted",)),
    ("*", ("pipeline.inflight",), "==", 0),
    # The KV service counts each request once, as one get or one set with one
    # latency sample, and serves every one correctly.
    ("*", ("kv.gets", "kv.sets"), "==", ("kv.requests",)),
    ("*", ("kv.request_ns.count",), "==", ("kv.requests",)),
    ("*", ("kv.validation_failures",), "==", 0),
    # crash_soak publishes its grid's recovery totals (RecoveryStats). A soak
    # that mounted nothing, or whose recovered bytes diverged, proves nothing.
    *(("crash_soak", (f"recovery.{m}",), ">=", 0) for m in (
        "pages_recovered", "pages_lost", "orphans_discarded", "journal_replays",
        "checkpoint_loads", "torn_writes_detected", "mount_ns")),
    ("crash_soak", ("audit.violations",), "==", 0),
    ("crash_soak", ("recovery.mounts",), ">", 0),
    ("crash_soak", ("recovery.content_mismatches",), "==", 0),
    ("crash_soak[]", ("violations",), "==", 0),
    ("crash_soak[]", ("content_mismatches",), "==", 0),
    # fig5 publishes its representative multiprogrammed cell.
    ("fig5_multiprogramming", ("mix.elapsed_ns",), ">=", 0),
    ("fig5_multiprogramming", ("mix.processes",), ">=", 0),
    ("fig5_multiprogramming", (r"~^proc\.",), ">=", 0),
    # ablation_codec reports every codec with a positive ratio, host
    # throughput and simulated thrash times, and the adaptive probe ran. Rows
    # without a codec key (the LZRW1 hash-table sweep) are not held to this.
    *((f"ablation_codec[codec={c}]", (f,), ">", 0) for c in CODECS for f in (
        "ratio_pct", "compress_mbps", "decompress_mbps",
        "sim_sparse_ns", "sim_text_ns", "sim_pointer_ns")),
    *(("ablation_codec[codec=adaptive]", (p,), ">=", 0) for p in PICKS),
    ("ablation_codec[codec=adaptive]", PICKS, ">", 0),
    *(("ablation_codec", (f"wall_clock.{k}_mbps.{c}",), ">", 0)
      for c in CODECS for k in ("compress", "decompress")),
    # ablation_pipeline: the pipelined machine beats sync on the headline curve
    # cell, and both write-behind and speculation engaged.
    ("ablation_pipeline", ("pipeline.curve.sync_ms",), ">", 0),
    ("ablation_pipeline", ("pipeline.curve.pipelined_ms",), ">", 0),
    ("ablation_pipeline", ("pipeline.curve.pipelined_ms",), "<", ("pipeline.curve.sync_ms",)),
    ("ablation_pipeline", ("pipeline.batches_submitted",), ">=", 1),
    ("ablation_pipeline", ("prefetch.issued",), ">=", 1),
    # ablation_tier: an interior ccache DRAM share beats both degenerate
    # machines, the snapshot carries a tiered cell, and every KV cell served
    # its requests correctly.
    *(("ablation_tier", (f"tier.frontier.{f}",), ">", 0)
      for f in ("best_ms", "all_dram_ms", "all_ssd_ms", "best_split")),
    ("ablation_tier", ("tier.frontier.best_split",), "<", 1),
    ("ablation_tier", ("tier.frontier.best_ms",), "<", ("tier.frontier.all_dram_ms",)),
    ("ablation_tier", ("tier.frontier.best_ms",), "<", ("tier.frontier.all_ssd_ms",)),
    ("ablation_tier", (r"~^tier\.[a-z0-9_]+\.level$",), ">=", 0),
    ("ablation_tier[axis=kv]", ("validation_failures",), "==", 0),
    # ablation_backing_store and audit_soak: every machine ran for positive
    # virtual time.
    ("ablation_backing_store[]", ("elapsed_ns",), ">", 0),
    ("audit_soak[]", ("elapsed_ns",), ">", 0),
    # fig6_service covers every backend x mode cell; each row has a sane tail
    # and conserves requests; at the headline knee the pipelined p99 is no
    # worse than sync.
    *((f"fig6_service[backend={b},mode={m}]", ("requests",), ">", 0)
      for b in ("clustered", "fixed_compressed", "lfs") for m in ("sync", "pipelined")),
    ("fig6_service[]", ("memory_mb",), ">=", 0),
    ("fig6_service[]", ("requests",), ">", 0),
    ("fig6_service[]", ("gets", "sets"), "==", ("requests",)),
    ("fig6_service[]", ("p50_ns",), ">", 0),
    ("fig6_service[]", ("p50_ns",), "<=", ("p99_ns",)),
    ("fig6_service[]", ("p99_ns",), "<=", ("p999_ns",)),
    ("fig6_service[]", ("ops_per_sec",), ">", 0),
    ("fig6_service[]", ("validation_failures",), "==", 0),
    ("fig6_service", ("service.sync_p99_ns",), ">", 0),
    ("fig6_service", ("service.pipelined_p99_ns",), ">", 0),
    ("fig6_service", ("service.pipelined_p99_ns",), "<=", ("service.sync_p99_ns",)),
    ("fig6_service", ("kv.requests",), ">=", 0),
]
OPS = {"==": operator.eq, "<": operator.lt, "<=": operator.le,
       ">": operator.gt, ">=": operator.ge}
# proc.<name>.<field> summed over processes equals the machine total.
PROC_PARTS = (("faults", "vm.faults"), ("compressed_hits", "vm.faults_from_ccache"),
              ("swap_faults", "vm.faults_from_swap"))


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def check_shape(doc, err):
    missing, extra = TOP_KEYS - doc.keys(), doc.keys() - TOP_KEYS
    if missing:
        err(f"missing top-level keys: {sorted(missing)}")
    if extra:
        err(f"unexpected top-level keys: {sorted(extra)}")
    if not isinstance(doc.get("bench"), str) or not doc["bench"]:
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
    if not isinstance(results, list) or not results:
        err('"results" must be a non-empty array')
    else:
        for i, row in enumerate(results):
            if not isinstance(row, dict) or not row:
                err(f"results[{i}] must be a non-empty object")
                continue
            for k, v in row.items():
                if not (isinstance(v, str) or is_number(v) and math.isfinite(v)):
                    err(f'results[{i}]["{k}"] must be string or finite number, got {v!r}')
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        err('"metrics" must be an object')
    else:
        for k, v in metrics.items():
            if not METRIC_NAME_RE.match(k):
                err(f'metric name "{k}" is not dotted lower_snake')
            if not (is_number(v) and math.isfinite(v)):
                err(f'metrics["{k}"] must be a finite number, got {v!r}')


def check_rule(where, values, lhs, op, rhs, required, err):
    """Checks one rule against one object: a metrics map or a results row."""
    if lhs[0].startswith("~"):
        matches = [k for k in values if re.search(lhs[0][1:], k)]
        if required and not matches:
            err(f"{where} must carry a name matching {lhs[0][1:]}")
        for k in matches:
            check_rule(where, values, (k,), op, rhs, required, err)
        return
    names = lhs + (rhs if isinstance(rhs, tuple) else ())
    missing = [n for n in names if not is_number(values.get(n))]
    if missing:
        if required:
            err(f"{where} must carry numeric {', '.join(missing)}")
        return
    a = sum(values[n] for n in lhs)
    b = sum(values[n] for n in rhs) if isinstance(rhs, tuple) else rhs
    if not OPS[op](a, b):
        rhs_text = f"{' + '.join(rhs)} = {b}" if isinstance(rhs, tuple) else b
        err(f"{where}: {' + '.join(lhs)} = {a}, must be {op} {rhs_text}")


def check_rules(bench, results, metrics, err):
    for scope, lhs, op, rhs in RULES:
        target, _, select = scope.partition("[")
        if target not in ("*", bench):
            continue
        if not select:
            where = "metrics" if target == "*" else f"{bench} metrics"
            check_rule(where, metrics, lhs, op, rhs, target != "*", err)
            continue
        want = dict(kv.split("=") for kv in select.rstrip("]").split(",") if kv)
        rows = [i for i, row in enumerate(results) if isinstance(row, dict)
                and all(row.get(k) == v for k, v in want.items())]
        if want and not rows:
            err(f"{bench} must report a row with {select.rstrip(']')}")
        for i in rows:
            check_rule(f"results[{i}]", results[i], lhs, op, rhs, True, err)


def check_proc(metrics, err):
    sums = {}
    for k, v in metrics.items():
        m = re.fullmatch(r"proc\.[a-z0-9_]+\.([a-z0-9_]+)", k)
        if m and is_number(v):
            sums[m[1]] = sums.get(m[1], 0) + v
    for field, total in PROC_PARTS:
        if field in sums and total in metrics and sums[field] != metrics[total]:
            err(f"sum(proc.*.{field}) = {sums[field]} but {total} = {metrics[total]} "
                f"-- per-process attribution must partition the machine total")


def check_tiers(metrics, err):
    """Tiers (tier.<name>.level, top first) pass every page demoted out of one
    tier into the next, and no demotion crosses either end of the stack."""
    levels = sorted((v, m[1]) for k, v in metrics.items()
                    if (m := re.fullmatch(r"tier\.([a-z0-9_]+)\.level", k)) and is_number(v))
    stack = [None, *(name for _, name in levels), None]
    flow = {(None, "out"): 0, (None, "in"): 0}
    for name in stack[1:-1]:
        for d in ("in", "out"):
            v = metrics.get(f"tier.{name}.demotions_{d}")
            if is_number(v):
                flow[name, d] = v
            else:
                err(f'tier "{name}" lacks numeric metrics["tier.{name}.demotions_{d}"]')
    for upper, lower in zip(stack, stack[1:]):
        dout, din = flow.get((upper, "out")), flow.get((lower, "in"))
        if dout is not None and din is not None and dout != din:
            err(f"tier boundary {upper or 'top'}/{lower or 'bottom'}: {dout} demoted "
                f"out but {din} in")


def validate(path):
    errors = []

    def err(msg):
        errors.append(f"{path}: {msg}")

    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return [f"{path}: unreadable or invalid JSON: {e}"]
    if not isinstance(doc, dict):
        return [f"{path}: top level must be an object"]
    check_shape(doc, err)
    results, metrics = doc.get("results"), doc.get("metrics")
    if isinstance(results, list) and isinstance(metrics, dict):
        check_proc(metrics, err)
        check_tiers(metrics, err)
        check_rules(doc.get("bench"), results, metrics, err)
    return list(dict.fromkeys(errors))


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    all_errors = []
    for path in argv[1:]:
        errors = validate(path)
        if errors:
            all_errors.extend(errors)
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
