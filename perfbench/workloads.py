"""The three workloads and the closed loop that drives them.

A run has four phases:

1. **set-up** -- start the serving stack and wait until it answers
   (three times; ``setup_s`` is the median);
2. **priming** -- build the specs the loop repeats and calibrate each
   city's budget to the median unconstrained CI cost;
3. **timed loop** -- whole rounds of the workload's mix, one request in
   flight, until ``--seconds`` have passed.  Every operation kind that
   feeds an end-to-end metric occurs in every round or every few
   rounds, so each metric's samples spread over the whole run;
4. **checks** -- every response, against :mod:`checker`.

Each latency metric is a median over one operation kind, so no metric
mixes cache hits with misses, reprices with closes/adds, or the first
build after a mutation with other builds.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import harness
import layers as layer_metrics
from checker import DEFAULT_QUERY, Checker, CityTruth, Record

#: Seed of the generated cities, LDA and FCM.  The workload seed drives
#: only the traffic, so every seed runs against the same cities.
CITY_SEED = 2019
#: Set-ups per run (the reported ``setup_s`` is their median).
SETUPS = 3
#: REMOVE edits per customization session.
EDITS = 3
#: Spare room under the registry's 1024-entry mutation log.
MAX_MUTATIONS = 1000
#: Ids of POIs the run adds start here (above every generated id).
ADDED_IDS = 10_000_000

E2E = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ops_per_s": "1/s",
    "warm_build_p50_ms": "ms",
    "cold_build_p50_ms": "ms",
    "cold_build_p95_ms": "ms",
    "budget_build_p50_ms": "ms",
    "fresh_seed_build_p50_ms": "ms",
    "post_mutate_build_p50_ms": "ms",
    "session_edit_p50_ms": "ms",
    "replayed_edit_p50_ms": "ms",
    "mutate_reprice_p50_ms": "ms",
    "mutate_reshape_p50_ms": "ms",
}
#: Latency metric -> (operation kind, quantile).
LATENCY = {
    "warm_build_p50_ms": ("warm", 0.5),
    "cold_build_p50_ms": ("cold", 0.5),
    "cold_build_p95_ms": ("cold", 0.95),
    "budget_build_p50_ms": ("budget", 0.5),
    "fresh_seed_build_p50_ms": ("fresh_seed", 0.5),
    "post_mutate_build_p50_ms": ("post_mutate", 0.5),
    "session_edit_p50_ms": ("edit", 0.5),
    "replayed_edit_p50_ms": ("replayed_edit", 0.5),
    "mutate_reprice_p50_ms": ("reprice", 0.5),
    "mutate_reshape_p50_ms": ("reshape", 0.5),
}
LAYER_UNITS = layer_metrics.layer_units(E2E)


@dataclass(frozen=True)
class Workload:
    name: str
    wire: bool
    cities: tuple[str, ...]
    scale: float
    lda_iterations: int
    store: bool


WORKLOADS = {
    "wire_warm": Workload("wire_warm", wire=True, cities=("london", "paris"),
                          scale=0.5, lda_iterations=10, store=True),
    "cold_compute": Workload("cold_compute", wire=False, cities=("paris",),
                             scale=4.0, lda_iterations=5, store=False),
    "live_churn": Workload("live_churn", wire=False, cities=("paris",),
                           scale=1.0, lda_iterations=10, store=True),
}


def make_service(workload: Workload, store_dir: Path | None):
    """The in-process serving stack, ready to serve (``warmup`` done)."""
    from repro.service.engine import PackageService
    from repro.service.registry import CityRegistry

    registry = CityRegistry(seed=CITY_SEED, scale=workload.scale,
                            lda_iterations=workload.lda_iterations,
                            store=store_dir)
    service = PackageService(registry)
    reply = service.dispatch("warmup", {"cities": list(workload.cities)})
    if reply.get("failed"):
        raise RuntimeError(f"warmup failed: {reply['failed']}")
    return service


def server_args(workload: Workload, store_dir: Path) -> list[str]:
    return ["--shards", "1", "--cities", ",".join(workload.cities),
            "--scale", str(workload.scale), "--seed", str(CITY_SEED),
            "--lda-iterations", str(workload.lda_iterations),
            "--store", str(store_dir)]


def setup_probe(name: str) -> float:
    """One in-process set-up in this fresh process: its age when ready."""
    workload = WORKLOADS[name]
    store_dir = harness.fresh_dir("probe") if workload.store else None
    try:
        make_service(workload, store_dir)
        return harness.process_age_s(os.getpid())
    finally:
        if store_dir is not None:
            shutil.rmtree(store_dir, ignore_errors=True)


class Run:
    """One run of one workload: the traffic generator and its records."""

    city_seed = CITY_SEED

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 trace: bool) -> None:
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.rng = random.Random(f"{workload.name}:{seed}")
        self.records: list[Record] = []
        self.spill = harness.Spill()
        self.truths: dict[str, CityTruth] = {}
        self.epochs: dict[str, int] = {}
        self.pois: dict[str, dict[int, dict]] = {}
        self.sessions: dict[int, dict] = {}
        self.budget: dict[str, float] = {}
        self.client = None
        self.spans = None
        self.traced_spans = 0
        self.setups: list[float] = []
        self.loop_ops = 0
        self.loop_s = 0.0
        self.peak_rss = 0.0
        self.serving_peak_rss = lambda: harness.peak_rss_mib(os.getpid())
        self._serial = 0
        self._spec_base = 1_000_000 * (seed % 1000 + 1)
        self._plan: list[str] = []

    # -- inputs --------------------------------------------------------------

    def add_city(self, city: str, dataset) -> None:
        self.truths[city] = CityTruth(
            {p.id: (p.cat.value, p.lat, p.lon, float(p.cost)) for p in dataset})
        self.pois[city] = {p.id: p.to_dict() for p in dataset}
        self.epochs[city] = 0

    def _next(self) -> int:
        self._serial += 1
        return self._serial

    def new_spec(self) -> dict:
        return {"size": self.rng.choice((4, 5, 6)),
                "uniform": self.rng.random() < 0.5,
                "seed": self._spec_base + self._next(),
                "method": "average", "w1": None}

    def next_mutation(self) -> tuple[str, str]:
        """This mutation's kind and the next one's.  Blocks of five:
        three reprices, one close, one add (60/20/20)."""
        while len(self._plan) < 2:
            block = ["reprice"] * 3 + ["close", "add"]
            self.rng.shuffle(block)
            self._plan.extend(block)
        return self._plan.pop(0), self._plan[0]

    # -- requests ------------------------------------------------------------

    def send(self, kind: str, op: str, city: str, payload: dict,
             session: int | None = None, edit=None,
             epoch: int | None = None) -> dict | bytes:
        seconds, response = self.client.call(op, dict(payload), kind)
        self.records.append(Record(
            kind=kind, op=op, city=city,
            epoch=self.epochs[city] if epoch is None else epoch,
            seconds=seconds, response=self.spill.put(response),
            request=payload, session=session, edit=edit))
        return response

    def build(self, kind: str, city: str, query: dict | None = None,
              fcm_seed: int | None = None) -> dict:
        payload = {"city": city, "group_spec": self.new_spec()}
        if query is not None:
            payload["query"] = query
        if fcm_seed is not None:
            payload["seed"] = fcm_seed
        self.send(kind, "build", city, payload)
        return payload

    def repeat(self, payload: dict) -> None:
        self.send("warm", "build", payload["city"], payload)

    def budget_build(self, city: str) -> None:
        self.build("budget", city,
                   query=dict(DEFAULT_QUERY, budget=self.budget[city]))

    def fresh_seed_build(self, city: str) -> None:
        self.build("fresh_seed", city,
                   fcm_seed=500_000 + 10_000 * (self.seed % 1000) + self._next())

    def session(self, payload: dict, keep_open: bool = False) -> int:
        """Open a session on an already built default-query spec (a cache
        hit), apply three REMOVE edits, and close it unless kept open."""
        handle = self._next()
        reply = self.client.parse(self.send(
            "open", "open_session", payload["city"], payload, session=handle))
        if reply.get("error"):
            raise RuntimeError(f"open_session failed: {reply['error']}")
        self.sessions[handle] = {
            "id": reply["session_id"], "city": payload["city"],
            "cis": [[p["id"] for p in ci["pois"]]
                    for ci in reply["package"]["composite_items"]],
        }
        for _ in range(EDITS):
            self.edit(handle)
        if not keep_open:
            self.close(handle)
        return handle

    def edit(self, handle: int, kind: str = "edit") -> None:
        state = self.sessions[handle]
        ci = self.rng.randrange(len(state["cis"]))
        poi = self.rng.choice(state["cis"][ci])
        self.send(kind, "customize", state["city"],
                  {"session_id": state["id"], "op": "remove",
                   "ci_index": ci, "poi_id": poi},
                  session=handle, edit=(ci, poi))
        state["cis"][ci].remove(poi)

    def close(self, handle: int) -> None:
        state = self.sessions.pop(handle)
        self.send("close", "close_session", state["city"],
                  {"session_id": state["id"]}, session=handle)

    def mutate(self, city: str, kind: str) -> None:
        truth = self.truths[city]
        base = [pid for pid in truth.at(truth.epoch) if pid < ADDED_IDS]
        if kind == "reprice":
            mutation = {"kind": "reprice_poi", "poi_id": self.rng.choice(base),
                        "cost": round(self.rng.uniform(0.5, 6.0), 4)}
        elif kind == "close":
            in_sessions = {p for s in self.sessions.values()
                           if s["city"] == city for ci in s["cis"] for p in ci}
            mutation = {"kind": "close_poi", "poi_id": self.rng.choice(
                [p for p in base if p not in in_sessions])}
        else:
            template = self.pois[city][self.rng.choice(base)]
            new_id = ADDED_IDS + self._next()
            mutation = {"kind": "add_poi", "poi": dict(
                template, id=new_id, name=f"venue {new_id}",
                lat=template["lat"] + self.rng.uniform(-0.003, 0.003),
                lon=template["lon"] + self.rng.uniform(-0.003, 0.003),
                cost=round(self.rng.uniform(0.5, 6.0), 4))}
        epoch = self.epochs[city] + 1
        reply = self.client.parse(self.send(
            "reprice" if kind == "reprice" else "reshape", "mutate", city,
            {"city": city, "mutation": mutation}, epoch=epoch))
        if reply.get("error"):
            raise RuntimeError(f"mutate failed: {reply['error']}")
        truth.apply(mutation)
        self.epochs[city] = epoch

    def churn(self, city: str, kept: list[int]) -> tuple[dict, str]:
        """One mutation, the first build after it, and the first edit of
        every session kept open across it.  Sessions stay open across a
        mutation only when it is a reprice: an unbudgeted package does
        not depend on cost, so the replay must succeed.  Returns the new
        build's spec and the next mutation's kind."""
        kind, next_kind = self.next_mutation()
        if kind != "reprice":
            for handle in kept:
                self.close(handle)
            kept = []
        self.mutate(city, kind)
        spec = self.build("post_mutate", city)
        for handle in kept:
            self.edit(handle, "replayed_edit")
            self.close(handle)
        return spec, next_kind

    # -- phases --------------------------------------------------------------

    def prime(self, city: str, count: int) -> list[dict]:
        """Builds before the loop; the city's budget becomes the median
        unconstrained CI cost of their packages."""
        payloads = [self.build("prime", city) for _ in range(count)]
        costs = []
        for record in self.records[-count:]:
            reply = self.spill.get(record.response)
            for ci in reply["package"]["composite_items"]:
                costs.append(sum(p["cost"] for p in ci["pois"]))
        self.budget[city] = statistics.median(costs)
        return payloads

    def timed(self, one_round) -> None:
        """Whole rounds until the run's time is up, then the peak RSS."""
        started = time.perf_counter()
        ops = len(self.records)
        index = 0
        while (time.perf_counter() - started < self.seconds
               and max(self.epochs.values()) < MAX_MUTATIONS):
            one_round(index)
            index += 1
        self.loop_s = time.perf_counter() - started
        self.loop_ops = len(self.records) - ops
        self.peak_rss = self.serving_peak_rss()
        for handle in list(self.sessions):
            self.close(handle)

    # -- the mixes -----------------------------------------------------------

    def wire_round(self, pool: list[dict]):
        """Per round: 36 warm repeats over the pool, 2 cold builds (one
        per city), 2 sessions over pool specs and one budgeted or
        fresh-seed build on the second city.  Every fourth round starts
        with a mutation of the second city, its first build, and a
        session on that build, kept open across the next mutation when
        that is a reprice.  The pool's city is never mutated, so its
        repeats stay hits.  (The second city is paris: FCM on london's
        geometry converges in either ~35 or 100-280 iterations depending
        on which POIs changed, which would make the first build after a
        mutation bimodal.)"""
        warm_city, churn_city = self.w.cities
        state = {"cursor": 0, "kept": []}

        def one_round(index: int) -> None:
            if index % 4 == 0:
                spec, next_kind = self.churn(churn_city, state["kept"])
                keep = next_kind == "reprice"
                handle = self.session(spec, keep_open=keep)
                state["kept"] = [handle] if keep else []
            actions = (["warm"] * 36 + ["cold"] * 2 + ["session"] * 2
                       + ["budget" if index % 2 else "fresh_seed"])
            self.rng.shuffle(actions)
            cities = [warm_city, churn_city]
            for action in actions:
                if action == "warm":
                    self.repeat(pool[state["cursor"] % len(pool)])
                    state["cursor"] += 1
                elif action == "cold":
                    self.build("cold", cities.pop())
                elif action == "session":
                    self.session(self.rng.choice(pool))
                elif action == "budget":
                    self.budget_build(churn_city)
                else:
                    self.fresh_seed_build(churn_city)

        return one_round

    def compute_round(self, cold: int, budget: int, fresh: int, warm: int):
        """The in-process round: a mutation and its first build, the
        replays it causes, ``cold`` default-query builds, ``budget`` and
        ``fresh`` builds, ``warm`` repeats of this round's default-query
        specs and one session on one of them, kept open across the next
        mutation when that is a reprice."""
        city = self.w.cities[0]
        state = {"kept": []}

        def one_round(index: int) -> None:
            spec, next_kind = self.churn(city, state["kept"])
            specs = [spec]
            actions = (["cold"] * cold + ["budget"] * budget
                       + ["fresh_seed"] * fresh)
            self.rng.shuffle(actions)
            for action in actions:
                if action == "cold":
                    specs.append(self.build("cold", city))
                elif action == "budget":
                    self.budget_build(city)
                else:
                    self.fresh_seed_build(city)
            for i in range(warm):
                self.repeat(specs[i % len(specs)])
            keep = next_kind == "reprice"
            handle = self.session(self.rng.choice(specs), keep_open=keep)
            state["kept"] = [handle] if keep else []

        return one_round


# -- running a workload ---------------------------------------------------------

def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    r = Run(WORKLOADS[name], seed, seconds, trace)
    if trace:
        import spans
        r.spans = spans.SpanRecorder()
        spans.install(r.spans)
    try:
        layers = _run_wire(r) if r.w.wire else _run_inproc(r)
    finally:
        r.spill.close()
    return _result(r, layers)


def _run_inproc(r: Run) -> dict | None:
    w = r.w
    city = w.cities[0]
    store_dir = harness.fresh_dir("store") if w.store else None
    try:
        service = make_service(w, store_dir)
        r.setups.append(harness.process_age_s(os.getpid()))
        r.client = harness.InProcessClient(service, r.spans)
        r.add_city(city, service.registry.entry(city).dataset)
        stored = _store_bytes(service)
        r.prime(city, 8)
        if w.name == "cold_compute":
            r.timed(r.compute_round(cold=8, budget=2, fresh=1, warm=1))
        else:
            r.timed(r.compute_round(cold=4, budget=1, fresh=1, warm=10))
        stats = service.stats()
        if r.spans is not None:
            r.traced_spans = len(r.spans.spans)
        _inproc_checker(r, service).check(r.records)
        layers = (layer_metrics.trace_inproc(r, stats, stored, LAYER_UNITS)
                  if r.trace else None)
        service.close()
    finally:
        if store_dir is not None:
            shutil.rmtree(store_dir, ignore_errors=True)
    for _ in range(SETUPS - 1):
        r.setups.append(_child_setup(w.name))
    return layers


def _store_bytes(service) -> int:
    store = service.registry.store
    return store.stats()["disk_bytes"] if store is not None else 0


def _child_setup(name: str) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")),
         "--setup-probe", name],
        capture_output=True, text=True, timeout=170, cwd=str(harness.ROOT))
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr[-2000:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _profiles(registry):
    """Spec -> per-category profile vectors, resolved by ``registry``."""
    from repro.data.poi import CATEGORIES
    from repro.service.schema import GroupSpec

    cache: dict[str, dict] = {}

    def profile(city: str, spec: dict) -> dict:
        key = city + json.dumps(spec, sort_keys=True)
        if key not in cache:
            p = registry.group_profile(city, GroupSpec.from_dict(spec))
            cache[key] = {c.value: p.vector(c) for c in CATEGORIES}
        return cache[key]

    return profile


def _inproc_checker(r: Run, service) -> Checker:
    # The live index is shared by every epoch and extended in place by
    # add_poi, so it holds the vector of every POI the run saw.
    city = r.w.cities[0]
    index = service.registry.entry(city).item_index
    return Checker(r.truths, {city: index.vector},
                   _profiles(service.registry), r.spill.get)


def _run_wire(r: Run) -> dict | None:
    from repro.data.synthetic import generate_city

    w = r.w
    stores: list[Path] = []
    server = None
    try:
        for i in range(SETUPS):
            if server is not None:
                server.stop()
            stores.append(harness.fresh_dir(f"store{i}"))
            server = harness.ServerProcess(server_args(w, stores[-1]),
                                           stores[-1].with_suffix(".log"))
            server.connect()
            r.setups.append(server.setup_s)
        r.client = server.client
        r.serving_peak_rss = server.peak_rss_mib
        for city in w.cities:
            r.add_city(city, generate_city(city, seed=CITY_SEED,
                                           scale=w.scale))
        warm_city, churn_city = w.cities
        pool = r.prime(warm_city, 32)
        r.prime(churn_city, 8)
        r.timed(r.wire_round(pool))
        stats = r.client.stats()
        server.stop()
        server = None
        _wire_checker(r, stores[-1]).check(r.records)
        layers = None
        if r.trace:
            layers = layer_metrics.trace_wire(
                r, stats, harness.median(_samples(r, "warm")),
                harness.median(_samples(r, "edit")),
                harness.median(_samples(r, "replayed_edit")), LAYER_UNITS)
    finally:
        if server is not None:
            server.stop()
        for path in stores:
            shutil.rmtree(path, ignore_errors=True)
            path.with_suffix(".log").unlink(missing_ok=True)
    return layers


def _wire_checker(r: Run, store_dir: Path) -> Checker:
    """Checker inputs read back after the server stopped: the fitted
    base index hydrated from the server's store, with every POI the run
    added folded in as the server folds it in (``extend_with`` under the
    city seed), and spec resolution through a registry over that store."""
    from repro.data.poi import POI
    from repro.service.registry import CityRegistry

    w = r.w
    registry = CityRegistry(seed=CITY_SEED, scale=w.scale,
                            lda_iterations=w.lda_iterations, store=store_dir)
    vectors = {}
    for city in w.cities:
        index = registry.entry(city).item_index
        for mutation in r.truths[city].mutations:
            if mutation["kind"] == "add_poi":
                index.extend_with(POI.from_dict(mutation["poi"]),
                                  seed=CITY_SEED)
        vectors[city] = index.vector
    return Checker(r.truths, vectors, _profiles(registry), r.spill.get)


# -- results --------------------------------------------------------------------

def _samples(r: Run, kind: str) -> list[float]:
    return [rec.seconds * 1000.0 for rec in r.records
            if rec.kind == kind and rec.error is None]


def e2e_metrics(r: Run) -> dict[str, float]:
    values = {
        "setup_s": harness.median(r.setups),
        "peak_rss_mb": r.peak_rss,
        "ops_per_s": r.loop_ops / r.loop_s if r.loop_s else 0.0,
    }
    for name, (kind, q) in LATENCY.items():
        values[name] = harness.quantile(_samples(r, kind), q)
    return values


def per_kind(r: Run) -> dict[str, dict[str, int]]:
    table: dict[str, dict[str, int]] = {}
    for rec in r.records:
        row = table.setdefault(rec.kind, {"attempted": 0, "failed": 0})
        row["attempted"] += 1
        row["failed"] += rec.error is not None
    return table


def _result(r: Run, layers: dict | None) -> dict:
    e2e = e2e_metrics(r)
    failed = [rec for rec in r.records if rec.error is not None]
    for rec in failed[:5]:
        print(f"failed {rec.kind} {rec.op}: {rec.error}", file=sys.stderr)
    if layers is None:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in E2E.items()}
    else:
        for name, value in e2e.items():
            layers[f"traced.{name}"] = value
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
    return {
        "per_kind": per_kind(r),
        "result": {"correct": all(v > 0 for v in e2e.values()),
                   "attempted": len(r.records), "failed": len(failed),
                   "metrics": metrics},
    }
