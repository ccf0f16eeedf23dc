#!/usr/bin/env python3
"""Rule test for check_bench_json.py.

Holds one minimal valid document for each bench that writes --json, and one
mutation for each rule the validator enforces: a small edit of one valid
document that breaks that rule. Every valid document must pass
and every mutation must fail. The validator is also run as a script, once
for each exit status (0 valid, 1 violations, 2 usage).

Run: python3 bench/check_bench_json_test.py (ctest: check_bench_json_test)
"""

import copy
import fnmatch
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import unittest

VALIDATOR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "check_bench_json.py")
_spec = importlib.util.spec_from_file_location("check_bench_json", VALIDATOR)
check_bench_json = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_bench_json)

# What every machine that publishes its registry carries (a small subset).
MACHINE = {
    "vm.faults": 10, "vm.faults_from_ccache": 6, "vm.faults_from_swap": 2,
    "vm.evictions": 7, "fault.pages_lost": 0, "retry.read_retries": 0,
    "recovery.pages_lost": 0, "swap.clustered.coresidents_dropped": 0,
    "audit.checks": 11, "audit.violations": 0,
}
PIPELINE = {
    "pipeline.batches_submitted": 28, "pipeline.batches_completed": 28,
    "pipeline.inflight": 0, "pipeline.stall_ns": 5, "prefetch.issued": 9,
    "prefetch.hits": 6, "prefetch.misses": 3, "prefetch.background_ns": 8,
}
KV = {
    "kv.requests": 100, "kv.gets": 90, "kv.sets": 10, "kv.request_ns.count": 100,
    "kv.request_ns.p99": 5e6, "kv.validation_failures": 0, "kv.bytes_read": 4096,
}
CODECS = ("adaptive", "fpc", "lzrw1", "lzrw1a", "rle", "store", "wk")
CODEC_FIELDS = ("ratio_pct", "compress_mbps", "decompress_mbps",
                "sim_sparse_ns", "sim_text_ns", "sim_pointer_ns")
PICKS = ("pick_store", "pick_fpc", "pick_lzrw1")
FIG6_CELLS = [(b, m) for b in ("clustered", "fixed_compressed", "lfs")
              for m in ("sync", "pipelined")]
CRASH_SOAK_METRICS = (
    "recovery.mounts", "recovery.pages_recovered", "recovery.pages_lost",
    "recovery.orphans_discarded", "recovery.journal_replays",
    "recovery.checkpoint_loads", "recovery.torn_writes_detected",
    "recovery.mount_ns", "recovery.content_mismatches", "audit.violations",
)


def doc(bench, results, metrics, config=None):
    return {"bench": bench, "schema_version": 1, "config": config or {"quick": True},
            "results": results, "metrics": metrics}


def tiers(*chain):
    """tier.<name>.* counters for a cascade given top-down as (name, in, out)."""
    m = {}
    for level, (name, din, dout) in enumerate(chain):
        m.update({f"tier.{name}.level": level, f"tier.{name}.demotions_in": din,
                  f"tier.{name}.demotions_out": dout, f"tier.{name}.pages": 3})
    return m


def codec_row(name):
    row = {"codec": name, **{f: i + 1.5 for i, f in enumerate(CODEC_FIELDS)}}
    if name == "adaptive":
        row.update(pick_store=78, pick_fpc=96, pick_lzrw1=114)
    return row


def fig6_row(backend, mode):
    return {"backend": backend, "mode": mode, "memory_mb": 4, "requests": 100,
            "gets": 90, "sets": 10, "p50_ns": 3000, "p99_ns": 1e6,
            "p999_ns": 2e6, "ops_per_sec": 1323.1, "validation_failures": 0}


VALID = {
    "fig1a_bandwidth": doc(
        "fig1a_bandwidth", [{"speed": 64, "ratio": 0.5, "speedup": 1.95}], {},
        {"model": "analytic", "decompress_speed_factor": 2}),
    "ablation_threshold": doc(
        "ablation_threshold",
        [{"workload": "compressible", "threshold": "1:1", "threshold_ratio": 1,
          "std_seconds": 126.9, "cc_seconds": 12.3, "speedup": 10.3}], {}),
    "table1_applications": doc(
        "table1_applications",
        [{"application": "compare", "std_seconds": 75.4, "cc_seconds": 24.2,
          "speedup": 3.12, "paper_speedup": 2.68}], dict(MACHINE),
        {"user_memory_mb": 8, "codec": "lzrw1", "disk": "rz57"}),
    "fig3_thrashing": doc(
        "fig3_thrashing", [{"size_mb": 8, "std_rw_ms": 40.1, "cc_rw_ms": 3.9,
                            "speedup_rw": 10.2, "pages_lost": 0}], dict(MACHINE)),
    "fig5_multiprogramming": doc(
        "fig5_multiprogramming",
        [{"mix": "gold_sort", "memory_mb": 4, "std_s": 9.9, "cc_s": 9.9,
          "cc_completion": "gold,sorter"}],
        {**MACHINE, "mix.elapsed_ns": 1.5e10, "mix.processes": 2,
         "mix.gold.run_ns": 5e9, "mix.gold.faults": 4,
         "proc.gold.faults": 4, "proc.gold.compressed_hits": 2, "proc.gold.swap_faults": 1,
         "proc.sorter.faults": 6, "proc.sorter.compressed_hits": 4,
         "proc.sorter.swap_faults": 1, "proc.sorter.run_ns": 9e9}),
    "fig6_service": doc(
        "fig6_service", [fig6_row(b, m) for b, m in FIG6_CELLS],
        {**MACHINE, **PIPELINE, **KV, "service.sync_p99_ns": 1.2e7,
         "service.pipelined_p99_ns": 5.5e6}),
    "audit_soak": doc(
        "audit_soak", [{"workload": "gold", "backend": "clustered", "fault_rate": 0,
                        "elapsed_ns": 1.08e10, "vm_faults": 819, "audit_runs": 26,
                        "violations": 0}],
        {**MACHINE, **tiers(("nvm", 0, 5), ("ssd", 5, 7), ("disk", 7, 0))},
        {"tiers": True, "quick": True}),
    "crash_soak": doc(
        "crash_soak", [{"backend": "clustered", "crash_points": 2, "crashes": 2,
                        "violations": 0, "content_mismatches": 0}],
        {**MACHINE, **{m: 0 for m in CRASH_SOAK_METRICS}, "recovery.mounts": 21,
         "recovery.mount_ns": 3.9e10}),
    "ablation_codec": doc(
        "ablation_codec",
        [codec_row(c) for c in CODECS]
        + [{"lzrw1_hash_bits": 12, "table_kib": 16, "ratio_pct": 52.3, "compress_mbps": 170}],
        {**MACHINE, **{f"wall_clock.{k}_mbps.{c}": 100 + i
                       for i, c in enumerate(CODECS) for k in ("compress", "decompress")}}),
    "ablation_pipeline": doc(
        "ablation_pipeline",
        [{"axis": "curve", "size_mb": 12, "sync_ms": 8.8, "pipelined_ms": 2.5},
         {"axis": "grid", "backend": "clustered", "depth": 4, "prefetch": 1, "avg_ms": 2.5}],
        {**MACHINE, **PIPELINE, "pipeline.curve.sync_ms": 8.8,
         "pipeline.curve.pipelined_ms": 2.5}),
    "ablation_backing_store": doc(
        "ablation_backing_store",
        [{"axis": "write_batch", "label": "32 KB", "elapsed_ns": 7.04e10, "blocks_reused": 3068,
          "blocks_appended": 2591, "free_blocks": 64, "free_runs": 2, "pages_read": 3133},
         {"axis": "swap_layout", "label": "LFS-style log", "elapsed_ns": 4.83e10}],
        dict(MACHINE)),
    "ablation_tier": doc(
        "ablation_tier", [{"axis": "kv", "split": "all_dram", "mean_ms": 1.6,
                           "validation_failures": 0, "violations": 0}],
        {**MACHINE, **KV, **tiers(("ssd", 0, 4), ("disk", 4, 0)),
         "tier.frontier.best_ms": 1.15, "tier.frontier.all_dram_ms": 1.59,
         "tier.frontier.all_ssd_ms": 1.16, "tier.frontier.best_split": 0.125}),
}

DROP = object()


def put(where, key, value):
    """Sets (or, with DROP, deletes every key matching the glob) `key` in the
    top level (""), "config", "metrics" or results[where]."""
    def edit(d):
        target = d if where == "" else d["results"][where] if isinstance(where, int) else d[where]
        if value is DROP:
            for k in [k for k in target if fnmatch.fnmatchcase(k, key)]:
                del target[k]
        else:
            target[key] = value
    return edit


def edits(*fns):
    def edit(d):
        for fn in fns:
            fn(d)
    return edit


# (rule it breaks, valid document, edit).
MUTATIONS = [
    # Shape.
    ("missing top-level key", "fig1a_bandwidth", put("", "config", DROP)),
    ("unexpected top-level key", "fig1a_bandwidth", put("", "notes", "x")),
    ("empty bench name", "fig1a_bandwidth", put("", "bench", "")),
    ("bench not a string", "fig1a_bandwidth", put("", "bench", 3)),
    ("schema_version 2", "fig1a_bandwidth", put("", "schema_version", 2)),
    ("schema_version true", "fig1a_bandwidth", put("", "schema_version", True)),
    ("config not an object", "fig1a_bandwidth", put("", "config", [])),
    ("config value a list", "fig1a_bandwidth", put("config", "model", ["analytic"])),
    ("config value null", "fig1a_bandwidth", put("config", "model", None)),
    ("results not an array", "fig1a_bandwidth", put("", "results", {})),
    ("results empty", "fig1a_bandwidth", put("", "results", [])),
    ("row not an object", "fig1a_bandwidth", put("", "results", [7])),
    ("row empty", "fig1a_bandwidth", put("", "results", [{}])),
    ("row value a bool", "fig1a_bandwidth", put(0, "speed", True)),
    ("row value an object", "ablation_threshold", put(0, "threshold", {})),
    ("row value infinite", "fig1a_bandwidth", put(0, "speedup", float("inf"))),
    ("metrics not an object", "fig3_thrashing", put("", "metrics", [])),
    ("metric name undotted", "fig3_thrashing", put("metrics", "evictions", 1)),
    ("metric name upper case", "fig3_thrashing", put("metrics", "vm.Evictions", 1)),
    ("metric value a string", "fig3_thrashing", put("metrics", "vm.evictions", "7")),
    ("metric value a bool", "fig3_thrashing", put("metrics", "vm.evictions", False)),
    ("metric value NaN", "fig3_thrashing", put("metrics", "vm.evictions", float("nan"))),
    # Families, on every document.
    *((f"negative {m}", "fig3_thrashing", put("metrics", m, -1)) for m in (
        "fault.pages_lost", "retry.read_retries", "recovery.pages_lost",
        "cc_rw.fault.pages_lost", "cc_rw.retry.write_retries",
        "swap.clustered.coresidents_dropped", "swap.lfs.coresidents_dropped",
        "cc.swap.lfs.coresidents_dropped")),
    ("negative pipeline.*", "ablation_pipeline", put("metrics", "pipeline.stall_ns", -1)),
    ("negative prefetch.*", "ablation_pipeline", put("metrics", "prefetch.background_ns", -1)),
    ("negative kv.*", "fig6_service", put("metrics", "kv.bytes_read", -1)),
    ("negative tier.*", "audit_soak", put("metrics", "tier.ssd.pages", -1)),
    ("zero wall_clock.*", "fig3_thrashing", put("metrics", "wall_clock.sweep_s", 0)),
    ("negative wall_clock.*", "fig3_thrashing", put("metrics", "wall_clock.sweep_s", -2.5)),
    ("audit.violations 1", "audit_soak", put("metrics", "audit.violations", 1)),
    ("audit.violations -1", "audit_soak", put("metrics", "audit.violations", -1)),
    ("labeled audit.violations", "fig3_thrashing", put("metrics", "cc_rw.audit.violations", 2)),
    # Per-process attribution partitions the machine totals.
    ("proc faults partition", "fig5_multiprogramming", put("metrics", "proc.gold.faults", 5)),
    ("proc compressed_hits partition", "fig5_multiprogramming",
     put("metrics", "proc.gold.compressed_hits", 3)),
    ("proc swap_faults partition", "fig5_multiprogramming",
     put("metrics", "proc.sorter.swap_faults", 0)),
    # Drained pipelines account for every speculation and batch.
    ("prefetch hits + misses != issued", "fig6_service", put("metrics", "prefetch.hits", 7)),
    ("batches completed != submitted", "ablation_pipeline",
     put("metrics", "pipeline.batches_completed", 27)),
    ("pipeline inflight", "fig6_service", put("metrics", "pipeline.inflight", 1)),
    # Tier cascade: named tiers carry both counters and conserve flow.
    ("tier lacks demotions_in", "audit_soak", put("metrics", "tier.ssd.demotions_in", DROP)),
    ("tier lacks demotions_out", "audit_soak", put("metrics", "tier.nvm.demotions_out", DROP)),
    ("lone tier lacks counters", "fig3_thrashing", put("metrics", "tier.ram.level", 0)),
    ("top tier receives demotions", "audit_soak", put("metrics", "tier.nvm.demotions_in", 1)),
    ("bottom tier emits demotions", "audit_soak", put("metrics", "tier.disk.demotions_out", 1)),
    ("first boundary leaks", "audit_soak", put("metrics", "tier.ssd.demotions_in", 4)),
    ("second boundary leaks", "audit_soak", put("metrics", "tier.disk.demotions_in", 6)),
    ("tiers chain by level", "audit_soak", edits(put("metrics", "tier.nvm.level", 1),
                                                 put("metrics", "tier.ssd.level", 0))),
    ("two-tier boundary leaks", "ablation_tier", put("metrics", "tier.disk.demotions_in", 3)),
    # KV service conservation, wherever kv.* is published.
    ("kv gets + sets != requests", "ablation_tier", put("metrics", "kv.sets", 11)),
    ("kv latency samples != requests", "fig6_service", put("metrics", "kv.request_ns.count", 99)),
    ("kv validation failure", "ablation_tier", put("metrics", "kv.validation_failures", 1)),
    # crash_soak.
    *((f"crash_soak lacks {m}", "crash_soak", put("metrics", m, DROP))
      for m in CRASH_SOAK_METRICS),
    ("crash_soak mounted nothing", "crash_soak", put("metrics", "recovery.mounts", 0)),
    ("crash_soak content mismatch", "crash_soak",
     put("metrics", "recovery.content_mismatches", 1)),
    ("crash_soak row violation", "crash_soak", put(0, "violations", 1)),
    ("crash_soak row content mismatch", "crash_soak", put(0, "content_mismatches", 2)),
    # fig5_multiprogramming.
    ("fig5 lacks mix.*", "fig5_multiprogramming", put("metrics", "mix.*", DROP)),
    ("fig5 lacks mix.elapsed_ns", "fig5_multiprogramming",
     put("metrics", "mix.elapsed_ns", DROP)),
    ("fig5 lacks mix.processes", "fig5_multiprogramming", put("metrics", "mix.processes", DROP)),
    ("fig5 lacks proc.*", "fig5_multiprogramming", put("metrics", "proc.*", DROP)),
    # ablation_codec.
    *((f"ablation_codec lacks the {c} row", "ablation_codec", put(i, "codec", c + "_x"))
      for i, c in enumerate(CODECS)),
    *((f"ablation_codec row lacks {f}", "ablation_codec", put(i, f, DROP))
      for i, f in enumerate(CODEC_FIELDS)),
    *((f"ablation_codec row with zero {f}", "ablation_codec", put(6 - i, f, 0))
      for i, f in enumerate(CODEC_FIELDS)),
    ("ablation_codec row with a string field", "ablation_codec", put(3, "ratio_pct", "52")),
    *((f"adaptive row lacks {p}", "ablation_codec", put(0, p, DROP)) for p in PICKS),
    *((f"adaptive row with negative {p}", "ablation_codec",
       edits(put(0, p, -1), put(0, "pick_lzrw1" if p != "pick_lzrw1" else "pick_fpc", 500)))
      for p in PICKS),
    ("adaptive picks sum to 0", "ablation_codec", edits(*(put(0, p, 0) for p in PICKS))),
    *((f"ablation_codec lacks wall_clock.{k}_mbps.{c}", "ablation_codec",
       put("metrics", f"wall_clock.{k}_mbps.{c}", DROP))
      for c in CODECS for k in ("compress", "decompress")),
    # fig6_service.
    *((f"fig6 row lacks {f}", "fig6_service", put(i % 6, f, DROP)) for i, f in enumerate(
        ("memory_mb", "requests", "gets", "sets", "p50_ns", "p99_ns", "p999_ns",
         "ops_per_sec", "validation_failures"))),
    ("fig6 row with a string field", "fig6_service", put(1, "memory_mb", "4")),
    ("fig6 p50 zero", "fig6_service", put(2, "p50_ns", 0)),
    ("fig6 p50 > p99", "fig6_service", put(3, "p50_ns", 1.5e6)),
    ("fig6 p99 > p999", "fig6_service", put(4, "p99_ns", 3e6)),
    ("fig6 served no requests", "fig6_service",
     edits(put(5, "requests", 0), put(5, "gets", 0), put(5, "sets", 0))),
    ("fig6 gets + sets != requests", "fig6_service", put(0, "sets", 9)),
    ("fig6 zero throughput", "fig6_service", put(1, "ops_per_sec", 0)),
    ("fig6 validation failure", "fig6_service", put(2, "validation_failures", 1)),
    *((f"fig6 lacks the ({b}, {m}) cell", "fig6_service", put(i, "mode", "async"))
      for i, (b, m) in enumerate(FIG6_CELLS)),
    ("fig6 lacks service.sync_p99_ns", "fig6_service",
     put("metrics", "service.sync_p99_ns", DROP)),
    ("fig6 lacks service.pipelined_p99_ns", "fig6_service",
     put("metrics", "service.pipelined_p99_ns", DROP)),
    ("fig6 zero p99s", "fig6_service", edits(put("metrics", "service.sync_p99_ns", 0),
                                             put("metrics", "service.pipelined_p99_ns", 0))),
    ("fig6 zero pipelined p99", "fig6_service", put("metrics", "service.pipelined_p99_ns", 0)),
    ("fig6 pipelined p99 worse", "fig6_service", put("metrics", "service.pipelined_p99_ns", 1.3e7)),
    ("fig6 lacks kv.*", "fig6_service", put("metrics", "kv.*", DROP)),
    # ablation_pipeline.
    ("pipeline lacks curve.sync_ms", "ablation_pipeline",
     put("metrics", "pipeline.curve.sync_ms", DROP)),
    ("pipeline lacks curve.pipelined_ms", "ablation_pipeline",
     put("metrics", "pipeline.curve.pipelined_ms", DROP)),
    ("pipeline zero curve.pipelined_ms", "ablation_pipeline",
     put("metrics", "pipeline.curve.pipelined_ms", 0)),
    ("pipeline zero curve.sync_ms", "ablation_pipeline", edits(
        put("metrics", "pipeline.curve.sync_ms", 0),
        put("metrics", "pipeline.curve.pipelined_ms", 0))),
    ("pipelined no faster than sync", "ablation_pipeline",
     put("metrics", "pipeline.curve.pipelined_ms", 8.8)),
    ("pipeline submitted no batch", "ablation_pipeline", edits(
        put("metrics", "pipeline.batches_submitted", 0),
        put("metrics", "pipeline.batches_completed", 0))),
    ("pipeline issued no speculation", "ablation_pipeline", edits(
        put("metrics", "prefetch.issued", 0), put("metrics", "prefetch.hits", 0),
        put("metrics", "prefetch.misses", 0))),
    ("pipeline lacks batches_submitted", "ablation_pipeline",
     put("metrics", "pipeline.batches_submitted", DROP)),
    ("pipeline lacks prefetch.issued", "ablation_pipeline",
     put("metrics", "prefetch.issued", DROP)),
    # ablation_tier.
    *((f"tier lacks frontier.{f}", "ablation_tier", put("metrics", f"tier.frontier.{f}", DROP))
      for f in ("best_ms", "all_dram_ms", "all_ssd_ms", "best_split")),
    ("tier best_split 0", "ablation_tier", put("metrics", "tier.frontier.best_split", 0)),
    ("tier best_split 1", "ablation_tier", put("metrics", "tier.frontier.best_split", 1)),
    ("tier frontier zero", "ablation_tier", edits(*(
        put("metrics", f"tier.frontier.{f}", 0) for f in ("best_ms", "all_dram_ms", "all_ssd_ms")))),
    ("tier split no better than all-DRAM", "ablation_tier",
     put("metrics", "tier.frontier.all_dram_ms", 1.15)),
    ("tier split no better than all-SSD", "ablation_tier",
     put("metrics", "tier.frontier.all_ssd_ms", 1.15)),
    ("tier lacks tier.*.level", "ablation_tier", put("metrics", "tier.*.level", DROP)),
    ("tier kv row validation failure", "ablation_tier", put(0, "validation_failures", 3)),
    # ablation_backing_store.
    ("backing store row with zero elapsed_ns", "ablation_backing_store",
     put(1, "elapsed_ns", 0)),
    # audit_soak.
    ("audit_soak row with zero elapsed_ns", "audit_soak", put(0, "elapsed_ns", 0)),
]

# Files that are not a JSON object at all.
RAW = [("invalid JSON", '{"bench": '), ("top level an array", "[]"), ("top level null", "null")]


class CheckBenchJsonTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, text):
        path = os.path.join(self.tmp.name, name + ".json")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        return path

    def errors(self, name, d):
        return check_bench_json.validate(self.write(name, json.dumps(d)))

    def test_every_valid_document_passes(self):
        for name, d in VALID.items():
            with self.subTest(bench=name):
                self.assertEqual(d["bench"], name)
                self.assertEqual(self.errors(name, d), [])

    def test_every_mutation_fails(self):
        labels = [label for label, _, _ in MUTATIONS]
        self.assertEqual(len(labels), len(set(labels)), "mutation labels must be unique")
        for label, bench, edit in MUTATIONS:
            with self.subTest(mutation=label):
                d = copy.deepcopy(VALID[bench])
                edit(d)
                self.assertNotEqual(json.dumps(d), json.dumps(VALID[bench]), "edit is a no-op")
                self.assertNotEqual(self.errors("mutant", d), [])
        for label, text in RAW:
            with self.subTest(mutation=label):
                self.assertNotEqual(check_bench_json.validate(self.write("raw", text)), [])

    def run_validator(self, *paths):
        return subprocess.run([sys.executable, VALIDATOR, *paths],
                              capture_output=True, text=True, check=False)

    def test_exit_codes(self):
        good = [self.write(name, json.dumps(d)) for name, d in VALID.items()]
        ok = self.run_validator(*good)
        self.assertEqual(ok.returncode, 0, ok.stderr)
        self.assertEqual(len(ok.stdout.splitlines()), len(good))
        self.assertIn(f"OK {good[0]}: bench=fig1a_bandwidth results=1 metrics=0", ok.stdout)
        bad = self.run_validator(good[0], self.write("bad", "[]"))
        self.assertEqual(bad.returncode, 1)
        self.assertIn("FAIL", bad.stderr)
        usage = self.run_validator()
        self.assertEqual(usage.returncode, 2)
        self.assertIn("Usage", usage.stderr)


if __name__ == "__main__":
    unittest.main()
