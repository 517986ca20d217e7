#!/usr/bin/env python3
"""Repeat the benchmark over seeds and report how steady each metric is.

    python3 perfbench/collect.py --seeds 1-10
    python3 perfbench/collect.py --seeds 1-10 --workloads pool-hier --write perfbench/trajectory/x.json
    python3 perfbench/collect.py --seeds 1 --trace 1 --write perfbench/trajectory/x.json

Runs the command of BENCHMARK.json once per workload and seed, one run at
a time, with BENCHMARK.json's run_seconds. For every metric it prints the
median, the quartiles (statistics.quantiles(values, n=4)) and the spread,
the distance between the quartiles as a share of the median, next to the
metric's bound. Exits with 1 if a spread other than setup_s's reaches its
bound. --write merges the summary, with the machine record of the first
run, into a JSON file under the given key (untraced or traced).
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(command, workload, seed, seconds, trace) -> dict:
    proc = subprocess.run(command + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    env = next((json.loads(line[len("# env "):]) for line in lines if line.startswith("# env ")), None)
    return {"result": result, "env": env}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=None, help="comma-separated; default all")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write", default=None, help="JSON file to merge the summary into")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = seed_list(args.seeds)
    summary, env, steady = {}, None, True
    for wl in workloads:
        runs = []
        for seed in seeds:
            r = run(spec["command"], wl, seed, spec["run_seconds"], args.trace)
            env = env or r["env"]
            res = r["result"]
            if not res["correct"] or res["failed"]:
                print(f"{wl} seed {seed}: correct={res['correct']} failed={res['failed']}")
                steady = False
            runs.append(res)
        summary[wl] = {"attempted": [r["attempted"] for r in runs],
                       "failed": [r["failed"] for r in runs], "metrics": {}}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            entry = {"unit": runs[0]["metrics"][name]["unit"], "median": med, "values": values}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med if med else float("nan")
                entry.update(q1=q1, q3=q3, spread=spread)
                bound = bounds.get(name)
                flag = ""
                if bound is not None and not args.trace:
                    flag = f"bound {bound:.2f}  spread/bound {spread / bound:.2f}"
                    if name != "setup_s" and not spread < bound:
                        steady = False
                print(f"{wl:20s} {name:36s} median {med:12.6g} {entry['unit']:6s} "
                      f"q1 {q1:10.5g} q3 {q3:10.5g} spread {spread:7.4f}  {flag}")
            else:
                print(f"{wl:20s} {name:36s} {med:12.6g} {entry['unit']}")
            summary[wl]["metrics"][name] = entry
        sys.stdout.flush()

    if args.write:
        path = Path(args.write)
        data = json.loads(path.read_text()) if path.exists() else {}
        key = "traced" if args.trace else "untraced"
        data.setdefault(key, {}).update(summary)
        data.setdefault("env", {})[key] = env
        data.setdefault("seeds", {})[key] = seeds
        data["run_seconds"] = spec["run_seconds"]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(data, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
