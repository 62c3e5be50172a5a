"""Per-layer metrics of a traced run.

In-process workloads read them from the spans :mod:`spans` records
around the program's layer functions; ``wire_warm``, whose engine runs
in a shard worker process, reads them from the server's own ``stats``
stage histograms.  Counters the program keeps itself (cache hits,
fits, pruning, replays) come from the ``stats`` op in both cases.  A
layer a workload does not reach reports 0.

``self.<kind>.<layer>_ms`` is the median, over the operations of one
kind, of the self time spent in one layer group: the blocking steps of
the end-to-end latency that kind feeds.  ``other`` is the time no
wrapped layer covers (request parsing, serialization, engine glue).
"""

from __future__ import annotations

import harness

#: Blocking self times: operation kind -> layer groups reported.
BLOCKING = {
    "warm": ("other", "cache"),
    "cold": ("other", "group_profile", "kfc", "assembly", "package_metrics"),
    "budget": ("other", "kfc", "assembly", "package_metrics"),
    "fresh_seed": ("other", "fcm", "assembly"),
    "post_mutate": ("other", "fcm", "assembly"),
    "edit": ("other", "customize", "package_metrics"),
    "replayed_edit": ("other", "kfc", "assembly", "customize"),
    "reprice": ("other", "mutate", "patch", "store"),
    "reshape": ("other", "mutate", "patch", "max_pairwise", "store"),
}
#: Span name -> layer group of the blocking self times.
GROUP = {
    "op": "other", "cache.get": "cache", "cache.put": "cache",
    "registry.group_profile": "group_profile", "kfc.build": "kfc",
    "kfc.place_centroids": "kfc", "fcm.fit": "fcm", "assembly": "assembly",
    "metrics.package": "package_metrics", "customize": "customize",
    "registry.mutate": "mutate", "live.patch": "patch",
    "geo.max_pairwise": "max_pairwise", "store.save": "store",
    "store.load": "store", "arrays.build": "arrays", "lda.fit": "lda",
    "data.generate": "generate",
}

LAYER_UNITS = {
    "server.frontend_p50_ms": "ms",
    "shard.hop_p50_ms": "ms",
    "shard.queue_wait_p50_ms": "ms",
    "schema.serialize_p50_ms": "ms",
    "schema.response_bytes": "bytes",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.hit_ratio": "ratio",
    "cache.lookup_p50_ms": "ms",
    "registry.group_profile_p50_ms": "ms",
    "registry.mutate_p50_ms": "ms",
    "registry.fits": "count",
    "registry.store_hits": "count",
    "registry.log_replays": "count",
    "kfc.build_p50_ms": "ms",
    "kfc.centroid_misses": "count",
    "fcm.fit_p50_ms": "ms",
    "fcm.fits": "count",
    "assembly.calls": "count",
    "assembly.p50_ms": "ms",
    "assembly.rows_scored_ratio": "ratio",
    "assembly.cells_pruned": "count",
    "metrics.package_metrics_p50_ms": "ms",
    "customize.edit_p50_ms": "ms",
    "engine.sessions_replayed": "count",
    "engine.replay_p50_ms": "ms",
    "live.patch_reprice_p50_ms": "ms",
    "live.patch_reshape_p50_ms": "ms",
    "live.full_rebuilds": "count",
    "geo.max_pairwise_ms": "ms",
    "geo.max_pairwise_calls": "count",
    "store.save_p50_ms": "ms",
    "store.saves": "count",
    "store.bytes_written": "bytes",
    "store.load_ms": "ms",
    "arrays.build_ms": "ms",
    "lda.fit_ms": "ms",
    "data.generate_ms": "ms",
}


def layer_units(e2e_units: dict[str, str]) -> dict[str, str]:
    """Every per-layer metric with its unit, in output order: the layer
    metrics, the traced run's end-to-end numbers (``traced.*``; their
    ratio to an untraced run is the tracing overhead) and the blocking
    self times."""
    units = dict(LAYER_UNITS)
    units.update({f"traced.{name}": unit for name, unit in e2e_units.items()})
    for kind, groups in BLOCKING.items():
        for group in groups:
            units[f"self.{kind}.{group}_ms"] = "ms"
    return units


def _program_counters(stats: dict, layers: dict) -> None:
    """Counters the program keeps itself (the ``stats`` wire op)."""
    cache = stats["cache"]
    layers["cache.hits"] = cache["hits"]
    layers["cache.misses"] = cache["misses"]
    layers["cache.hit_ratio"] = cache["hit_rate"]
    counters = stats["registry"]["counters"]
    for name in ("fits", "store_hits", "log_replays"):
        layers[f"registry.{name}"] = counters[name]
    assembly = stats["assembly"]
    layers["assembly.rows_scored_ratio"] = (
        assembly["rows_scored"] / assembly["rows_total"]
        if assembly["rows_total"] else 0.0)
    layers["assembly.cells_pruned"] = assembly["cells_pruned"]
    layers["live.full_rebuilds"] = stats["live"]["full_rebuilds"]
    layers["engine.sessions_replayed"] = stats["live"]["sessions_replayed"]
    stages = stats["obs"]["stages"]
    layers["cache.lookup_p50_ms"] = harness.hist_quantile(
        stages.get("cache_lookup"), 0.5)
    layers["schema.serialize_p50_ms"] = harness.hist_quantile(
        stages.get("serialize"), 0.5)


def _from_records(run, layers: dict) -> None:
    """Layer numbers the responses themselves carry."""
    for kind, name in (("reprice", "live.patch_reprice_p50_ms"),
                       ("reshape", "live.patch_reshape_p50_ms")):
        layers[name] = harness.median(
            [run.spill.get(rec.response)["patch_ms"] for rec in run.records
             if rec.kind == kind and rec.error is None])
    # The spilled reply is the wire line: JSON plus its newline.
    layers["schema.response_bytes"] = harness.median(
        [rec.response[1] for rec in run.records if rec.kind == "warm"])


def _disk_bytes(stats: dict) -> int:
    store = stats["registry"].get("store")
    return store["disk_bytes"] if store else 0


def trace_inproc(run, stats: dict, stored_before: int, units: dict) -> dict:
    rec = run.spans
    spans_run = rec.spans[:run.traced_spans]  # not the checker's own calls
    selfs = rec.self_times()
    kind_of = rec.ops
    layers = {name: 0.0 for name in units}
    _program_counters(stats, layers)
    _from_records(run, layers)

    def durations(name, kinds=None, setup=False):
        return [(s[2] - s[1]) * 1000.0 for s in spans_run
                if s[0] == name and (
                    (setup and s[4] < 0) or
                    (not setup and s[4] >= 0 and
                     (kinds is None or kind_of[s[4]] in kinds)))]

    def med(name, kinds=None):
        return harness.median(durations(name, kinds))

    def setup_ms(name):
        values = durations(name, setup=True)
        return values[0] if values else 0.0

    layers["registry.group_profile_p50_ms"] = med("registry.group_profile",
                                                  ("cold",))
    layers["registry.mutate_p50_ms"] = med("registry.mutate")
    layers["kfc.build_p50_ms"] = med("kfc.build", ("cold",))
    layers["fcm.fit_p50_ms"] = med("fcm.fit")
    fits = len(durations("fcm.fit"))
    layers["fcm.fits"] = fits
    layers["kfc.centroid_misses"] = fits
    layers["assembly.calls"] = len(durations("assembly"))
    layers["assembly.p50_ms"] = med("assembly", ("cold",))
    layers["customize.edit_p50_ms"] = med("customize", ("edit",))
    layers["geo.max_pairwise_ms"] = med("geo.max_pairwise")
    layers["geo.max_pairwise_calls"] = len(durations("geo.max_pairwise"))
    layers["store.save_p50_ms"] = med("store.save")
    layers["store.saves"] = len(durations("store.save"))
    layers["store.load_ms"] = setup_ms("store.load")
    layers["store.bytes_written"] = _disk_bytes(stats) - stored_before
    layers["arrays.build_ms"] = setup_ms("arrays.build")
    layers["lda.fit_ms"] = setup_ms("lda.fit")
    layers["data.generate_ms"] = setup_ms("data.generate")

    # Per operation: the four metric calls summed, the start of the last
    # customize call (what precedes it in a replayed edit is the
    # replay), and self time per layer group.
    per_op: dict[int, dict[str, float]] = {}
    for index, span in enumerate(spans_run):
        op = span[4]
        if op < 0:
            continue
        groups = per_op.setdefault(op, {})
        group = GROUP.get(span[0], "other")
        groups[group] = groups.get(group, 0.0) + selfs[index] * 1000.0
        if span[0] == "metrics.package":
            groups["_metrics"] = groups.get("_metrics", 0.0) + (
                span[2] - span[1]) * 1000.0
        elif span[0] == "customize":
            groups["_last_edit"] = span[1]
        elif span[0] == "op":
            groups["_start"] = span[1]
    layers["metrics.package_metrics_p50_ms"] = harness.median(
        [g.get("_metrics", 0.0) for op, g in per_op.items()
         if kind_of[op] == "cold"])
    layers["engine.replay_p50_ms"] = harness.median(
        [(g["_last_edit"] - g["_start"]) * 1000.0
         for op, g in per_op.items()
         if kind_of[op] == "replayed_edit" and "_last_edit" in g])
    for kind, groups in BLOCKING.items():
        ops = [g for op, g in per_op.items() if kind_of[op] == kind]
        for group in groups:
            layers[f"self.{kind}.{group}_ms"] = harness.median(
                [g.get(group, 0.0) for g in ops])
    spans_dir = harness.WORK / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    rec.dump(spans_dir / f"{run.w.name}-seed{run.seed}.ndjson")
    return layers


def trace_wire(run, stats: dict, warm_ms: float, edit_ms: float,
               replayed_ms: float, units: dict) -> dict:
    """Layer numbers of the served stack from its own ``stats`` stage
    histograms; the set-up layers from one traced fit of the warm city
    in this process (same parameters as the server's)."""
    from repro.service.registry import CityRegistry

    layers = {name: 0.0 for name in units}
    _program_counters(stats, layers)
    _from_records(run, layers)
    stages = stats["obs"]["stages"]
    frontend = stats["server"]["obs"]["stages"]

    def p50(table, name):
        return harness.hist_quantile(table.get(name), 0.5)

    dispatch = p50(frontend, "dispatch")
    layers["server.frontend_p50_ms"] = warm_ms - dispatch
    layers["shard.hop_p50_ms"] = dispatch - p50(stages, "serve:build")
    layers["shard.queue_wait_p50_ms"] = p50(stages, "queue_wait")
    layers["kfc.build_p50_ms"] = p50(stages, "assemble")
    layers["metrics.package_metrics_p50_ms"] = p50(stages, "package_metrics")
    layers["registry.mutate_p50_ms"] = p50(stages, "mutate")
    layers["store.save_p50_ms"] = p50(stages, "store_save")
    layers["store.saves"] = (stages.get("store_save") or {}).get("count", 0)
    layers["store.load_ms"] = p50(stages, "store_hydrate")
    layers["store.bytes_written"] = _disk_bytes(stats)
    layers["engine.replay_p50_ms"] = replayed_ms - edit_ms
    before = len(run.spans.spans)
    CityRegistry(seed=run.city_seed, scale=run.w.scale,
                 lda_iterations=run.w.lda_iterations).entry(run.w.cities[0])
    names = {"arrays.build": "arrays.build_ms", "lda.fit": "lda.fit_ms",
             "data.generate": "data.generate_ms"}
    for span in run.spans.spans[before:]:
        if span[0] in names:
            layers[names[span[0]]] = (span[2] - span[1]) * 1000.0
    return layers
