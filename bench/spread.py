"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --seeds 1-10 [--workloads hat-compare,...]
                            [--trace 0] [--out summary.json]

Runs use the command and run length in BENCHMARK.json, one after another.
For each workload and metric it prints the median of the runs and the
distance between their first and third quartiles as a share of the median
(``statistics.quantiles(values, n=4)``); with ``--trace 0`` it marks every
spread that is not below a third of the metric's bound, and also summarises
the raw wall-clock throughput and median latency from each run's report.
Every run must be correct, or the script exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    *_, report, result = proc.stdout.strip().splitlines()
    return json.loads(report), json.loads(result)


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary: dict = {}
    all_correct = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        runs = []
        for seed in args.seeds:
            report, result = run_once(bench, workload, seed, args.trace)
            all_correct &= result["correct"]
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "digest": report["digest"], "ops": report["ops"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            if args.trace == 0:
                values.setdefault("raw.ops_per_s", []).append(report["ops_per_s"])
                values.setdefault("raw.op_p50_ms", []).append(report["latency"]["p50_ms"])
            print(f"{workload} seed {seed}: correct={result['correct']} ops={report['ops']} "
                  f"raw_ops_per_s={report['ops_per_s']:.4g} slowdown={report['slowdown']:.3f} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                             if args.trace == 0), flush=True)
        stats = {name: summarize(v) for name, v in values.items() if len(v) > 1}
        summary[workload] = {"runs": runs, "metrics": stats}
        for name, s in stats.items():
            flag = ""
            if name in bounds and s["spread"] >= bounds[name] / 3:
                flag = f"  <-- not below bound/3 = {bounds[name] / 3:.3f}"
            print(f"  {name:45s} median {s['median']:.6g}  spread {s['spread']:.4f}{flag}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
