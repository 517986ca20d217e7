#!/usr/bin/env python3
"""Seeded benchmark of nuolab's time to verdict.

    python3 perfbench/run.py --workload oracle-exact --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from a checkout that holds `src/nuolab`. One run builds batches of
items from the seed, times every item from outside, checks every output,
and prints the metrics; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics: setup_s, wall_s (median time of
one batch), item_ms_p50, item_ms_tail (the highest percentile with at
least 10 items beyond it, at most p90) and peak_rss_mb. Times are scaled
to the reference machine's full speed (see PROBE_REF_S); the times as
measured are printed and recorded beside them. --trace 1 times one batch untraced,
then the same batch with span wrappers installed (see tracing.py), then
untraced again, and reports the per-layer metrics. Each run also writes
its full record, with the machine it ran on, under perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
NAMES = ("oracle-exact", "pool-hier", "loop-coin", "realizable-adaptive")
MIN_BATCHES = 5
TAIL_CAP = 90
# The shared machine runs up to half again slower for tens of seconds at a
# time, so item times are scaled to the reference machine's full speed: a
# fixed probe of the kinds of work nuolab does (dict updates with tuple keys,
# frozenset filtering, exact rational sums), independent of nuolab's code, is
# timed between items, and an item's time is multiplied by PROBE_REF_S over
# the mean of the probe times around it.
PROBE_KEYS = [(i % 97, i % 89) for i in range(4000)]
PROBE_REF_S = 0.00083   # the probe's time at full speed on the reference machine
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import nuolab; print(time.perf_counter() - t)")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(seed: int, traced: bool) -> dict:
    import numpy as np
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha = dirty = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30).stdout.strip() or None
            status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                     "--untracked-files=no"],
                                    capture_output=True, text=True, timeout=30)
            dirty = bool(status.stdout.strip()) if status.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "platform": platform.platform(), "git_sha": sha,
            "git_dirty": dirty, "seed": seed, "traced": traced}


def import_seconds() -> float:
    """Time of `import nuolab` in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip())


def probe() -> float:
    """Time of the fixed probe: the machine's current speed."""
    t0 = time.perf_counter()
    table: dict = {}
    for key in PROBE_KEYS:
        table[key] = table.get(key, 0) + 1
    ids = frozenset(range(1200))
    for c in range(8):
        ids = frozenset(i for i in ids if (i >> c) & 1 == 0) | frozenset(range(c, 1200, 7))
    acc = Fraction(0)
    for i in range(1, 60):
        acc += Fraction(1, i)
    return time.perf_counter() - t0


def batch_seed(seed: int, batch: int) -> int:
    import numpy as np
    return int(np.random.SeedSequence([seed, batch]).generate_state(1)[0])


class Measurement:
    """Latencies, batch times and failures of one run of one workload."""

    def __init__(self, workload):
        self.workload = workload
        self.latencies: list[float] = []
        self.scaled: list[float] = []       # latencies at the reference speed
        self.batch_scaled: list[float] = []
        self.batch_walls: list[float] = []
        self.setups: list[tuple] = []      # (import, build, both at the reference speed)
        self.samples: list = []
        self.failures: dict = {}
        self.attempted = 0
        self.first_digest = None

    def batch(self, seed: int, b: int, call=None) -> float:
        wl = self.workload
        call = call or wl.run
        before = probe()
        imported = import_seconds()
        t0 = time.perf_counter()
        items = wl.build(batch_seed(seed, b))
        built = time.perf_counter() - t0
        after = probe()
        self.setups.append((imported, built, (imported + built) * PROBE_REF_S * 2 / (before + after)))
        wall = scaled = 0.0
        before = after
        items.reverse()
        while items:    # drop each item once done, so memos die with their inputs
            item = items.pop()
            key = self.attempted
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                out = call(item)
                failure = None
            except Exception as exc:    # a failed item is counted, not fatal
                failure = f"{type(exc).__name__}: {exc}"
                traceback.print_exc(file=sys.stderr)
            dt = time.perf_counter() - t0
            after = probe()
            speed = PROBE_REF_S * 2 / (before + after)
            before = after
            if failure is None:
                wall += dt
                scaled += dt * speed
                failure = wl.check(item, out)
                self.samples.append((key, wl.sample(item, out)))
                if key == 0:
                    self.first_digest = wl.digest(out, [])
            else:
                dt = math.inf       # a failure misses every latency limit
            if failure:
                self.failures[key] = failure
            self.latencies.append(dt)
            self.scaled.append(dt * speed)
        self.batch_walls.append(wall)
        self.batch_scaled.append(scaled)
        return wall

    def finish(self, seed: int) -> None:
        """Pooled distribution checks, then the determinism self-check: the
        first item is built and replayed twice more, and every prediction
        and output must match bit for bit."""
        wl = self.workload
        self.failures.update(wl.pooled_check(self.samples))
        digests = []
        try:
            for _ in range(2):
                log: list = []
                out = wl.run(wl.build(batch_seed(seed, 0))[0], log)
                digests.append((wl.digest(out, []), wl.digest(out, log)))
        except Exception as exc:    # counted like a failed item
            self.failures[0] = f"replay of the first item raised {type(exc).__name__}: {exc}"
            return
        if not (digests[0] == digests[1] and digests[0][0] == self.first_digest):
            self.failures[0] = "replays of the first item differ"

    @property
    def failed(self) -> int:
        return len(self.failures)

    def tail_pct(self) -> int:
        """Highest percentile with at least 10 items beyond it, at most p90.

        The cap keeps the tail clear of the handful of items per run that
        absorb a full garbage collection: their count follows the heap's
        growth, not the item count, so a percentile among them would swing
        from run to run."""
        return min(TAIL_CAP, int(100 * (1 - 10 / len(self.latencies))))


def metric(value, unit):
    return {"value": value, "unit": unit}


def percentiles(values: list[float], pct: int) -> tuple[float, float]:
    """Median and the pct-th percentile."""
    return (statistics.median(values),
            statistics.quantiles(values, n=100, method="inclusive")[pct - 1])


def untraced_metrics(m: Measurement) -> tuple[dict, dict]:
    """The bounded end-to-end metrics (times at the reference speed), and
    the same times as measured, which are printed and recorded unbounded."""
    tail = m.tail_pct()
    p50, ptail = percentiles(m.scaled, tail)
    raw50, rawtail = percentiles(m.latencies, tail)
    bounded = {
        "setup_s": metric(statistics.median(s[2] for s in m.setups), "s"),
        "wall_s": metric(statistics.median(m.batch_scaled), "s"),
        "item_ms_p50": metric(p50 * 1e3, "ms"),
        "item_ms_tail": metric(ptail * 1e3, "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw = {
        "tail_percentile": metric(tail, "pct"),
        "setup_s_as_measured": metric(statistics.median(s[0] + s[1] for s in m.setups), "s"),
        "wall_s_as_measured": metric(statistics.median(m.batch_walls), "s"),
        "item_ms_p50_as_measured": metric(raw50 * 1e3, "ms"),
        "item_ms_tail_as_measured": metric(rawtail * 1e3, "ms"),
    }
    return bounded, raw


def traced_metrics(tracer, untraced_wall: float, traced_wall: float) -> dict:
    spans = tracer.summary()
    c = tracer.counters

    def self_s(*names):
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

    def calls(*names):
        return sum(spans.get(n, {}).get("calls", 0) for n in names)

    def layer_self(layer):
        return sum(v["self_s"] for k, v in spans.items() if k.startswith(layer + "."))

    pools = ("fpl.pool_extend", "fpl.pool_predict", "fpl.pool_update")
    games_with_pool = max(c["fpl.games_with_pool"], 1)
    experts = c["fpl.experts_final"] / games_with_pool
    states = c["fpl.engine_states_final"] / games_with_pool
    scoring_us = spans.get("fpl.pool_predict", {}).get("total_s", 0.0) * 1e6
    rounds = c["runner.rounds"]
    values = {
        "littlestone.ldim.self_s": (self_s("littlestone.ldim"), "s"),
        "littlestone.minimax.self_s": (self_s("littlestone.minimax"), "s"),
        "littlestone.witness.self_s": (self_s("littlestone.witness"), "s"),
        "littlestone.verify_witness.self_s": (self_s("littlestone.verify_witness"), "s"),
        "littlestone.soa_prediction.calls": (calls("littlestone.soa_prediction"), "count"),
        "littlestone.soa_prediction.self_s": (self_s("littlestone.soa_prediction"), "s"),
        "littlestone.restrict.calls": (calls("littlestone.restrict"), "count"),
        "littlestone.self_s": (layer_self("littlestone"), "s"),
        "littlestone.wall_share": (layer_self("littlestone") / traced_wall, "ratio"),
        "learners.predict.self_s": (self_s("learners.predict"), "s"),
        "learners.update.self_s": (self_s("learners.update"), "s"),
        "learners.calls": (calls("learners.predict", "learners.update"), "count"),
        "fpl.pool_extend.self_s": (self_s("fpl.pool_extend"), "s"),
        "fpl.pool_predict.self_s": (self_s("fpl.pool_predict"), "s"),
        "fpl.pool_update.self_s": (self_s("fpl.pool_update"), "s"),
        "fpl.pool.wall_share": (self_s(*pools) / traced_wall, "ratio"),
        "fpl.experts_final": (experts, "count"),
        "fpl.engine_states_final": (states, "count"),
        "fpl.distinct_state_ratio": (states / experts if experts else 0.0, "ratio"),
        "fpl.experts_scored": (c["fpl.experts_scored"], "count"),
        "fpl.scored_per_us": (c["fpl.experts_scored"] / scoring_us if scoring_us else 0.0, "1/us"),
        "fpl.meta_predict.self_s": (self_s("fpl.meta_predict"), "s"),
        "fpl.meta_update.self_s": (self_s("fpl.meta_update"), "s"),
        "fpl.agnostic.self_s": (self_s("fpl.agnostic_predict", "fpl.agnostic_update"), "s"),
        "nature.next_point.self_s": (self_s("nature.next_point"), "s"),
        "nature.reveal_label.self_s": (self_s("nature.reveal_label"), "s"),
        "nature.commit_adversary.self_s": (self_s("nature.commit_adversary"), "s"),
        "hypotheses.measure_sample.self_s": (self_s("hypotheses.measure_sample"), "s"),
        "hypotheses.measure_sample.calls": (calls("hypotheses.measure_sample"), "count"),
        "runner.rounds": (rounds, "count"),
        "runner.trials": (c["runner.trials"], "count"),
        "runner.run_game.self_s": (self_s("runner.run_game"), "s"),
        "runner.round_overhead_us": (self_s("runner.run_game") / rounds * 1e6 if rounds else 0.0, "us"),
        "runner.regret.self_s": (self_s("runner.regret"), "s"),
        "runner.monte_carlo.self_s": (self_s("runner.monte_carlo", "runner.regret_curve"), "s"),
        "bench.item.self_s": (self_s("bench.item"), "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_frac": (traced_wall / untraced_wall - 1.0, "ratio"),
    }
    return {name: metric(v, unit) for name, (v, unit) in values.items()}


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    import nuolab
    if Path(nuolab.__file__).resolve().parent != SRC / "nuolab":
        print(f"perfbench: imported nuolab from {nuolab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    env = environment(args.seed, bool(args.trace))
    wl = workloads.WORKLOADS[args.workload]
    m = Measurement(wl)
    record = {"workload": wl.name, "env": env, "items_per_batch": wl.items_per_batch}
    raw = {}
    if not args.trace:
        # the work is fixed by --seconds, not by the clock: as many batches as
        # took that long on the reference machine
        for b in range(max(MIN_BATCHES, round(args.seconds / wl.batch_seconds))):
            m.batch(args.seed, b)
        metrics, raw = untraced_metrics(m)
        record["unbounded"] = raw
    else:
        # untraced, traced, untraced on the same inputs; the faster untraced
        # pass is the base, so warm-up does not count as tracing overhead
        untraced = m.batch(args.seed, 0)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = m.batch(args.seed, 0, tracer.wrap("bench.item", wl.run))
        finally:
            tracer.uninstall()
        untraced = min(untraced, m.batch(args.seed, 0))
        metrics = traced_metrics(tracer, untraced, traced)
        record.update(missing_spans=tracer.missing, spans=tracer.summary(),
                      counters=tracer.counters, first_item=tracer.first_tree("bench.item"))
    installed = tracing.count_installed()    # must be 0 outside the traced batch
    m.finish(args.seed)
    correct = m.failed == 0 and installed == 0
    record.update(batches=len(m.batch_walls), batch_walls_s=m.batch_walls, setups_s=m.setups,
                  latencies_s=m.latencies, scaled_latencies_s=m.scaled,
                  items=len(m.latencies), attempted=m.attempted, failed=m.failed,
                  fail_ratio=m.failed / m.attempted, failures=dict(list(m.failures.items())[:20]),
                  wrappers_installed=installed, correct=correct, metrics=metrics)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))

    print(f"# {wl.name} seed={args.seed} trace={args.trace} "
          f"batches={len(m.batch_walls)} items={len(m.latencies)} "
          f"fail_ratio={m.failed / m.attempted:.4f} record={path.relative_to(ROOT)}")
    print("# env " + json.dumps(env))
    for name, v in metrics.items():
        print(f"{wl.name} {name} = {v['value']:.6g} {v['unit']}")
    for name, v in raw.items():
        print(f"# unbounded {wl.name} {name} = {v['value']:.6g} {v['unit']}")
    for key, reason in list(m.failures.items())[:5]:
        print(f"# failure item {key}: {reason}")
    print(json.dumps({"correct": correct, "attempted": m.attempted, "failed": m.failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so each reports its own peak RSS."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric_name, v in result["metrics"].items():
            combined["metrics"][f"{name}.{metric_name}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nuolab" / "__init__.py").is_file():
        print(f"perfbench: no nuolab sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
