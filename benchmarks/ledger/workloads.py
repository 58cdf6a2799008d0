"""The seven workloads: set-up, body, correctness checks, layer metrics.

Bodies reach ``repro`` only through package ``__all__`` surfaces and the
``python -m repro`` CLI.  Every call a body makes goes through
``Workload.call`` / ``Workload.cli`` so the traced repetition gets a span
around it; ``repro`` itself is imported lazily, inside ``setup``, because
importing it is part of what ``setup_s`` measures.
"""

from __future__ import annotations

import contextlib
import cProfile
import glob
import hashlib
import json
import math
import os
import pstats
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from instruments import (Tally, Tracer, calibration_s, fold_profile, ncalls,
                         ncalls_from, ratio, read_json, scaled, timed)
from spec import LAYERS

Metrics = Dict[str, Optional[float]]

#: Work counts read from ``ncalls`` of named public callables.
COUNTED_CALLS = {
    "net.events.scheduled": ("repro.net:Simulator.schedule",
                             "repro.net:Simulator.schedule_at"),
    "net.router.hops": ("repro.net:Router.receive",),
    "net.queues.offers": ("repro.net:DropTailQueue.offer",
                          "repro.net:REDQueue.offer"),
    "crypto.fingerprint.calls": ("repro.crypto:fingerprint_bytes",),
    "crypto.signatures.signs": ("repro.crypto:Signed.sign",),
    "crypto.signatures.verifies": ("repro.crypto:Signed.verify",),
    "dist.consensus.runs": ("repro.dist:SignedConsensus.run",),
    "core.pi2.rounds": ("repro.core:ProtocolPi2.evaluate_round",),
    "core.summaries.observes": ("repro.core:SummaryBuilder.observe",),
    "core.summaries.freezes": ("repro.core:SummaryBuilder.freeze",),
    "core.validation.validates": ("repro.core:validate",
                                  "repro.core:validate_encoded"),
    "dist.reconcile.calls": ("repro.dist:reconcile",),
    "core.chi.rounds": ("repro.core:ProtocolChi.evaluate_round",),
    # The SPF entry point has no public name; if it is renamed the count
    # reads null rather than silently dropping the re-convergence work.
    "net.routing.installs": ("repro.net:install_static_routes",
                             "repro.net:LinkStateRouting._run_spf"),
}


def digest_of(doc: object) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def without_key(doc: object, key: str) -> object:
    """*doc* with every mapping entry called *key* removed, recursively."""
    if isinstance(doc, dict):
        return {k: without_key(v, key) for k, v in doc.items() if k != key}
    if isinstance(doc, list):
        return [without_key(v, key) for v in doc]
    return doc


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def tree_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(base, name))
               for base, _dirs, names in os.walk(path) for name in names)


@dataclass
class Outcome:
    """What one repetition produced, reduced outside the timed region."""

    #: Hashed into the repetition's result digest; never holds
    #: simulator-internal event counts, so event fusion keeps it stable.
    digest_doc: object
    quality: Metrics = field(default_factory=dict)
    #: Paths and manifests ``traced_metrics`` reads its numbers from.
    artefacts: Dict[str, object] = field(default_factory=dict)

    @property
    def digest(self) -> str:
        return digest_of(self.digest_doc)


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str, quick: bool,
                 tracer: Tracer, tally: Tally) -> None:
        self.seed = seed
        self.workdir = workdir
        self.quick = quick
        self.tracer = tracer
        self.tally = tally
        self.reps_done = 0

    # -- instrumented call sites --------------------------------------

    def call(self, name: str, layer: str, fn, *args):
        with self.tracer.span(name, layer):
            return fn(*args)

    def cli(self, name: str, layer: str,
            args: Sequence[str]) -> subprocess.CompletedProcess:
        """Run ``python -m repro <args>``; a non-zero exit is a failure."""
        with self.tracer.span(name, layer):
            done = subprocess.run(
                [sys.executable, "-m", "repro", *args], cwd=self.workdir,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        self.tally.record(
            done.returncode == 0,
            f"{name}: exit {done.returncode}: {done.stderr.strip()[-300:]}")
        return done

    def path(self, *parts: str) -> str:
        return os.path.join(self.workdir, *parts)

    # -- the workload -------------------------------------------------

    def setup(self) -> None:
        """Imports and input artefacts; everything ``setup_s`` covers."""

    def body(self) -> object:
        raise NotImplementedError

    def examine(self, raw: object) -> Outcome:
        """Reduce a body's return value and run the property checks."""
        raise NotImplementedError

    @contextlib.contextmanager
    def instruments(self):
        """Extra instruments around the traced repetition's body."""
        yield

    def traced_metrics(self, outcome: Outcome,
                       untraced_wall_s: float) -> Metrics:
        """Per-layer metrics, computed after the traced repetition while
        spans are still on (so in-process probes get spans too).
        *untraced_wall_s* is on the reference scale (see ``scaled``)."""
        raise NotImplementedError

    def check(self, ok: bool, what: str) -> bool:
        return self.tally.record(bool(ok), f"{self.name}: check failed: {what}")

    def layer_table_from_spans(self) -> Metrics:
        return layer_table(self.tracer.self_time_by_layer())

    def import_cost(self) -> Metrics:
        """``python -m repro list``: interpreter start plus imports, which
        every CLI call of a body pays again."""
        self.cli("cli.import", "other", ["list"])
        return {"cli.import_s": self.tracer.duration("cli.import")}


def layer_table(self_s: Dict[str, float]) -> Metrics:
    total = sum(self_s.values())
    table: Metrics = {}
    for layer in LAYERS:
        table[f"{layer}.self_s"] = self_s[layer]
        table[f"{layer}.share"] = ratio(self_s[layer], total)
    return table


# -- the four simulator workloads --------------------------------------------

class SimWorkload(Workload):
    """Run one registry experiment once, in process."""

    experiment = ""
    params: Dict[str, object] = {}
    seeded = True
    #: also measure the repo's own recorder on this workload
    measures_recorder = False

    def setup(self) -> None:
        from repro.eval import registry, serialize_result
        from repro.net import Simulator

        self._run_experiment = registry.run_experiment
        self._serialize = serialize_result
        self._simulator = Simulator
        self._params = dict(self.params)
        if self.seeded:
            self._params["seed"] = self.seed

    def body(self) -> object:
        return self.call("eval.run_experiment", "eval", self._run_experiment,
                         self.experiment, self._params)

    def examine(self, raw: object) -> Outcome:
        latency, false_alarm = self.score(raw)
        return Outcome(
            digest_doc=without_key(self._serialize(raw), "sim_events"),
            quality={"detect_latency_sim_s": latency,
                     "false_alarm_share": false_alarm})

    def score(self, result) -> tuple:
        """(detection latency in simulated s, false-alarm share); checks."""
        raise NotImplementedError

    @contextlib.contextmanager
    def instruments(self):
        self._profile = cProfile.Profile()
        before = self._simulator.dispatched_total
        self._profile.enable()
        try:
            yield
        finally:
            self._profile.disable()
            self._dispatched = self._simulator.dispatched_total - before

    def traced_metrics(self, outcome: Outcome,
                       untraced_wall_s: float) -> Metrics:
        stats = pstats.Stats(self._profile).stats
        dispatched = self._dispatched
        metrics = layer_table(fold_profile(stats))
        metrics["net.events.dispatched"] = dispatched
        for name, targets in COUNTED_CALLS.items():
            metrics[name] = ncalls(stats, targets)
        hops = metrics["net.router.hops"]
        fingerprints = metrics["crypto.fingerprint.calls"]
        hashed = ncalls_from(stats, "<method 'digest' of '_blake2.blake2b' "
                             "objects>", "repro.crypto:fingerprint_bytes")
        metrics["net.router.events_per_hop"] = ratio(dispatched, hops)
        metrics["crypto.fingerprint.per_hop"] = ratio(fingerprints, hops)
        missed = ratio(hashed, fingerprints)
        metrics["crypto.fingerprint.cache_hit_share"] = (
            None if missed is None else (1.0 - missed if fingerprints else 0.0))
        metrics["dist.consensus.signs_per_run"] = ratio(
            metrics["crypto.signatures.signs"], metrics["dist.consensus.runs"])
        if self.measures_recorder and not self.quick:
            metrics.update(self._recorder_cost(untraced_wall_s, hops))
        return metrics

    def _recorder_cost(self, untraced_wall_s: float,
                       hops: Optional[int]) -> Metrics:
        """One body under the repo's recorder writing JSONL."""
        from repro.obs import JsonlSink, recorder

        path = self.path("recorder.jsonl")
        around = [calibration_s()]
        rec = recorder()
        rec.enable(JsonlSink(path))
        try:
            with self.tracer.span("body.recorded", "obs"):
                wall_s, _ = timed(self.body)
            events = rec.events_emitted
        finally:
            rec.disable()
        around.append(calibration_s())
        return {
            "obs.trace.enabled_overhead_share":
                scaled([wall_s], around)[0] / untraced_wall_s - 1.0,
            "obs.trace.events": events,
            "obs.trace.bytes_per_hop": ratio(os.path.getsize(path), hops),
        }


class _ChiWorkload(SimWorkload):
    tau = 0.0  # the experiment's round length, simulated seconds

    def score(self, result) -> tuple:
        m = result.metrics
        self.check(m.detected, "adversary detected")
        self.check(m.false_positive_rounds == 0,
                   f"chi silent on benign rounds "
                   f"(got {m.false_positive_rounds} false-positive rounds)")
        rounds = (m.detection_latency_rounds if m.detected
                  else m.attack_rounds)
        return rounds * self.tau, ratio(m.false_positive_rounds,
                                        m.benign_rounds)


class ChiDroptail(_ChiWorkload):
    name = "chi-droptail"
    experiment = "chi"
    tau = 2.0
    params = {"tau": tau}
    measures_recorder = True


class RedAdversary(_ChiWorkload):
    name = "red-adversary"
    experiment = "adversary_heavy"
    tau = 5.0  # fixed inside the experiment


class Pi2Abilene(SimWorkload):
    name = "pi2-abilene"
    experiment = "attack_matrix"
    measures_recorder = True
    rounds, tau = 12, 1.0
    params = {"topology": "abilene", "adversary.behavior": "drop",
              "adversary.rate": 0.5,
              "placement.strategy": "max-betweenness",
              "traffic.flows": 8, "traffic.duration": 12.0,
              "rounds": rounds, "tau": tau}

    def score(self, result) -> tuple:
        self.check(result.detected, "adversary detected")
        self.check(result.segment_precision <= 2,
                   f"Pi2 precision <= 2 (got {result.segment_precision})")
        latency = (result.latency if result.latency is not None
                   else self.rounds * self.tau)
        return latency, ratio(result.false_suspicions,
                              result.total_suspicions)


class FatihAbilene(SimWorkload):
    name = "fatih-abilene"
    experiment = "fig5_7"
    seeded = False
    attack_time, end_time = 117.0, 220.0
    compromised = "KansasCity"  # fixed inside the experiment
    params = {"attack_time": attack_time, "end_time": end_time}

    def score(self, result) -> tuple:
        detected = result.first_detection is not None
        self.check(detected, "attack detected")
        self.check(detected and result.reroute_time is not None
                   and result.reroute_time > result.first_detection,
                   "reroute follows detection")
        latency = (result.detection_latency if detected
                   else self.end_time - self.attack_time)
        segments = result.suspected_segments
        false = sum(1 for s in segments if self.compromised not in s)
        return latency, ratio(false, len(segments))


# -- the three tool-chain workloads ------------------------------------------

class _SweepWorkload(Workload):
    """``python -m repro sweep pik2_bench``: 2 grid points x N seeds."""

    def sweep_args(self, out: str, *extra: str) -> List[str]:
        return ["sweep", "pik2_bench", "--seeds", "2" if self.quick else "8",
                "--grid", "fraction=0.25,0.5", "--root-seed", str(self.seed),
                "--quiet", "--out", out, *extra]

    def rep_dir(self) -> str:
        path = self.path(f"rep-{self.reps_done}")
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        self.reps_done += 1
        return path

    def manifest(self, out: str) -> dict:
        """A sweep's ``sweep.json``; its failed runs count as failures."""
        manifest = read_json(os.path.join(out, "sweep.json"))
        self.tally.record_many(manifest["n_total"], manifest["n_failed"],
                               f"{self.name}: failed sweep run in {out}")
        return manifest

    def same_aggregate(self, reference: str, other: str, what: str) -> None:
        self.check(read_bytes(os.path.join(reference, "aggregate.csv"))
                   == read_bytes(os.path.join(other, "aggregate.csv")),
                   f"{what} aggregate.csv byte-identical to the cold sweep's")

    @staticmethod
    def aggregate_doc(out: str) -> List[str]:
        """``aggregate.csv`` rows minus the simulator-internal event count."""
        text = read_bytes(os.path.join(out, "aggregate.csv")).decode("utf-8")
        return [line for line in text.splitlines()
                if not line.startswith("sim_events,")]

    def telemetry_metrics(self, manifest: dict, cli_wall_s: float,
                          out: str) -> Metrics:
        t = manifest["telemetry"]
        jobs = t["workers"]["jobs"]
        return {
            "sweep.runner.wall_s": t["wall_s"],
            "sweep.runner.run_wall_s": t["run_wall"]["total_s"],
            "sweep.runner.overhead_s":
                t["wall_s"] - t["run_wall"]["total_s"] / jobs,
            "sweep.runner.utilization": t["workers"]["utilization"],
            "sweep.runner.runs": t["runs"]["total"],
            "sweep.runner.retries": t["attempts"]["retries"],
            "sweep.cache.hits": t["cache"]["hits"],
            "sweep.cache.misses": t["cache"]["misses"],
            "sweep.cache.hit_share": t["cache"]["hit_rate"],
            "sweep.cli.outside_s": cli_wall_s - t["wall_s"],
            "sweep.artifacts.bytes": tree_bytes(out),
        }

class SweepCold(_SweepWorkload):
    name = "sweep-cold"

    def setup(self) -> None:
        # Warm the page cache and .pyc files the way any earlier CLI call
        # would have; the bodies then measure sweeps, not first imports.
        self.import_cost()

    def body(self) -> str:
        rep = self.rep_dir()
        self.cli("sweep.cold", "sweep", self.sweep_args(
            os.path.join(rep, "cold"), "--jobs", "2",
            "--cache-dir", os.path.join(rep, "cache")))
        # 2 shards x 1 job keeps the dispatched leg at nproc workers.
        self.cli("sweep.dispatched", "sweep", self.sweep_args(
            os.path.join(rep, "dispatched"), "--jobs", "1", "--no-cache",
            "--executor", "subprocess", "--shards", "2"))
        return rep

    def examine(self, raw: str) -> Outcome:
        cold = os.path.join(raw, "cold")
        dispatched = os.path.join(raw, "dispatched")
        manifest = self.manifest(cold)
        self.manifest(dispatched)
        self.same_aggregate(cold, dispatched, "dispatched")
        hit_share = manifest["telemetry"]["cache"]["hit_rate"]
        self.check(hit_share == 0, f"cold cache hit share 0 (got {hit_share})")
        outcome = Outcome(digest_doc=self.aggregate_doc(cold))
        outcome.artefacts = {"manifest": manifest, "out": cold}
        return outcome

    def traced_metrics(self, outcome: Outcome,
                       untraced_wall_s: float) -> Metrics:
        cold_s = self.tracer.duration("sweep.cold")
        metrics = self.telemetry_metrics(outcome.artefacts["manifest"],
                                         cold_s, outcome.artefacts["out"])
        metrics["sweep.executors.dispatch_s"] = (
            self.tracer.duration("sweep.dispatched") - cold_s)
        metrics.update(self.import_cost())
        metrics.update(self.layer_table_from_spans())
        return metrics


class SweepWarm(_SweepWorkload):
    name = "sweep-warm"

    def setup(self) -> None:
        self.cache = self.path("cache")
        self.cold = self.path("cold")
        self.cli("sweep.cold", "sweep", self.sweep_args(
            self.cold, "--jobs", "2", "--cache-dir", self.cache))
        self.manifest(self.cold)

    def body(self) -> str:
        rep = self.rep_dir()
        cached = ("--jobs", "2", "--cache-dir", self.cache)
        self.cli("sweep.warm", "sweep", self.sweep_args(
            os.path.join(rep, "warm"), *cached))
        shards = [os.path.join(rep, f"shard-{i}") for i in (0, 1)]
        for i, shard in enumerate(shards):
            self.cli(f"sweep.shard-{i}", "sweep", self.sweep_args(
                shard, "--shard", f"{i}/2", *cached))
        self.cli("sweep.merge", "sweep", [
            "merge", *shards, "--out", os.path.join(rep, "merged"),
            "--quiet"])
        return rep

    def examine(self, raw: str) -> Outcome:
        warm = os.path.join(raw, "warm")
        manifest = self.manifest(warm)
        self.same_aggregate(self.cold, warm, "warm")
        self.same_aggregate(self.cold, os.path.join(raw, "merged"), "merged")
        hit_share = manifest["telemetry"]["cache"]["hit_rate"]
        self.check(hit_share == 1, f"warm cache hit share 1 (got {hit_share})")
        outcome = Outcome(digest_doc=self.aggregate_doc(warm))
        outcome.artefacts = {"manifest": manifest, "out": warm,
                                 "rep": raw}
        return outcome

    def traced_metrics(self, outcome: Outcome,
                       untraced_wall_s: float) -> Metrics:
        from repro.sweep import merge_sweeps

        rep = outcome.artefacts["rep"]
        metrics = self.telemetry_metrics(
            outcome.artefacts["manifest"],
            self.tracer.duration("sweep.warm"), outcome.artefacts["out"])
        self.call("sweep.merge_sweeps", "sweep", merge_sweeps,
                  [os.path.join(rep, "shard-0"), os.path.join(rep, "shard-1")],
                  os.path.join(rep, "merged-in-process"))
        metrics["sweep.merge.self_s"] = self.tracer.duration(
            "sweep.merge_sweeps")
        metrics.update(self.import_cost())
        metrics.update(self.layer_table_from_spans())
        return metrics


class ObsForensics(Workload):
    name = "obs-forensics"
    flow = "f1"

    def setup(self) -> None:
        a, b = self.sweeps = [self.path("A"), self.path("B")]
        cell = [arg for key, value in Pi2Abilene.params.items()
                for arg in ("--param", f"{key}={value}")]
        self.cli("sweep.traced", "sweep", [
            "sweep", "attack_matrix", *cell,
            "--seeds", "1" if self.quick else "2", "--jobs", "2",
            "--root-seed", str(self.seed), "--no-cache", "--trace",
            "--quiet", "--out", a])
        # The candidate side of `obs diff` is a copy: a second traced sweep
        # would double the set-up for the same bytes.
        shutil.copytree(a, b)
        manifest = read_json(os.path.join(a, "sweep.json"))
        self.tally.record_many(manifest["n_total"], manifest["n_failed"],
                               f"{self.name}: failed traced sweep run")
        self.bad = manifest["runs"][0]["result"]["adversary_router"]

    def drop_indexes(self) -> None:
        for out in self.sweeps:
            for sidecar in glob.glob(os.path.join(out, "traces",
                                                  "*.idx.json")):
                os.remove(sidecar)

    def body(self) -> dict:
        a, b = self.sweeps
        self.drop_indexes()
        return {
            "drops": self.cli("obs.query.scan", "obs", [
                "obs", "query", "--event", "net.drop", "--count", a]),
            "selected": self.cli("obs.query.indexed", "obs", [
                "obs", "query", "--flow", self.flow, "--router", self.bad,
                "--count", a]),
            "explain": self.cli("obs.explain", "obs", [
                "obs", "explain", self.bad, a, "--format", "json"]),
            "summary": self.cli("obs.summarize", "obs", [
                "obs", "summarize", a, "--format", "json"]),
            "diff": self.cli("obs.diff", "obs", ["obs", "diff", a, b]),
        }

    def examine(self, raw: dict) -> Outcome:
        drops = int(raw["drops"].stdout)
        selected = int(raw["selected"].stdout)
        explained = json.loads(raw["explain"].stdout)
        summary = json.loads(raw["summary"].stdout)
        self.check(drops > 0 and drops == summary["events"]["net.drop"],
                   "query and summarize agree on the net.drop count")
        self.check(0 < selected, "the selective query returns events")
        verdicts = []
        for entry in explained:
            latency = entry["detection_latency"]
            self.check(entry["classification"] == "tp"
                       and latency is not None and math.isfinite(latency),
                       f"explain reports {self.bad} as a TP with finite "
                       f"latency in {os.path.basename(entry['trace'])}")
            verdicts.append([entry["classification"], latency,
                             sum(1 for v in entry["verdicts"]
                                 if v["true_positive"])])
        return Outcome(digest_doc={"net.drop": drops, "explain": verdicts,
                                   "self_diff_exit": raw["diff"].returncode})

    def traced_metrics(self, outcome: Outcome,
                       untraced_wall_s: float) -> Metrics:
        from repro.obs import (QueryFilter, TraceReader, diff_sweeps,
                               explain_sweep, trace_files)

        a, b = self.sweeps
        files = trace_files(a)
        lines = sum(1 for path in files for _ in open(path, "rb"))

        def count(query, use_index):
            return sum(1 for path in files for _ in
                       TraceReader(path).events(query, use_index=use_index))

        self.drop_indexes()
        self.call("obs.TraceReader.index", "obs",
                  lambda: [TraceReader(path).index() for path in files])
        self.call("obs.TraceReader.events.scan", "obs", count,
                  QueryFilter(events=("net.drop",)), False)
        selected = self.call(
            "obs.TraceReader.events.indexed", "obs", count,
            QueryFilter(flow=self.flow, router=self.bad), True)
        explained = self.call("obs.explain_sweep", "obs", explain_sweep,
                              a, self.bad)
        self.call("obs.diff_sweeps", "obs", diff_sweeps, a, b)

        seconds = self.tracer.duration
        scan_s = seconds("obs.TraceReader.events.scan")
        metrics = {
            "obs.query.index_build_s": seconds("obs.TraceReader.index"),
            "obs.query.scan_s": scan_s,
            "obs.query.indexed_s": seconds("obs.TraceReader.events.indexed"),
            "obs.query.events_per_s": ratio(lines, scan_s),
            "obs.query.bytes": sum(os.path.getsize(p) for p in files),
            "obs.query.selected_share": ratio(selected, lines),
            "obs.forensics.explain_s": seconds("obs.explain_sweep"),
            "obs.forensics.verdicts": sum(len(e.verdicts) for e in explained),
            "obs.diff.self_s": seconds("obs.diff_sweeps"),
        }
        metrics.update(self.import_cost())
        metrics.update(self.layer_table_from_spans())
        return metrics


WORKLOAD_CLASSES = {cls.name: cls for cls in (
    ChiDroptail, RedAdversary, Pi2Abilene, FatihAbilene,
    SweepCold, SweepWarm, ObsForensics)}
