"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload hat-compare --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout: simdiff is imported from ``src/``
there and nowhere else, and the run fails when it is missing.  The loop is
closed: one caller, no threads, each op starting when the previous one
returns, for ``--seconds`` of wall time.  Only ``run`` of each op is timed;
input generation and the answer check are not.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones: ops per second, median op latency,
set-up time and peak RSS, the times rescaled to a nominal machine speed
(see ``speed.py``).  With ``--trace 1`` the tracer is installed and the
metrics are the per-layer ones (see ``tracing.py``).  The line before it is
a report with input sizes, the op mix, raw wall-clock throughput, set-up
times and latency percentiles, the failure share and digests of the first
ops' inputs and answers.

Set-up time is the median of SETUP_REPEATS cold set-ups, each in a fresh
process started with ``--cold-setup``: from before simdiff is imported,
through building the base, its cylinders and the theory or groupoid, to the
end of one untimed warm-up op.  The set-up builds the same structures on
every seed, so every cold set-up runs the same warm-up op, input -1 of seed
SETUP_SEED: set-up time does not vary with ``--seed``, and the median is
taken over identical work.  Each is rescaled by speed samples taken just before and just
after it.  Peak RSS is read after RSS_OPS timed ops: caches such as the
hat theory's homotopy memo grow with every op, and a faster program that
completes more ops in a run must not read as using more memory.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import speed  # noqa: E402  (needs ROOT on the path)

SETUP_REPEATS = 7  # cold set-ups per untraced run; setup_s is their median
SETUP_SEED = 0     # seed of the cold set-ups' warm-up input
SETUP_TIMEOUT_S = 120  # limit on one cold set-up process
RSS_OPS = 10       # peak RSS is read after this many timed ops (or at the end)
SPEED_SHARE = 0.05  # speed sampling after each op, as a share of the op's time
SETUP_SPEED_S = 0.3  # speed sampling around each cold set-up, in seconds
DIGEST_OPS = 4     # timed ops whose inputs and answers are digested
MAX_REASONS = 5    # failure reasons kept in the report


def import_simdiff() -> None:
    """Put the checkout's src/ first on the path and import simdiff from it."""
    if not (SRC / "simdiff" / "__init__.py").is_file():
        raise SystemExit(f"error: no simdiff package under {SRC}")
    sys.path.insert(0, str(SRC))
    import simdiff
    if Path(simdiff.__file__).resolve().parent != SRC / "simdiff":
        raise SystemExit(f"error: simdiff imported from {simdiff.__file__}, not {SRC}")


def _digest(items: list) -> str:
    text = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _failure(stage: str, exc: Exception) -> str:
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{stage} raised {type(exc).__name__}: {exc} ({Path(frame.filename).name}:{frame.lineno})"


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cold_setup(name: str, seed: int, t0: float, spin: list[float]) -> dict:
    """Set up in this fresh process and run warm-up op -1; time it from t0.

    t0 is taken before simdiff is imported, and `spin` holds the speed
    samples taken just before it; as many are taken again just after.
    """
    from bench import workloads

    wl = workloads.WORKLOADS[name](seed)
    wl.setup()
    warm = wl.make_input(-1)
    try:
        answer = wl.run(warm)
    except Exception as e:  # reported as a failed warm-up op
        elapsed, failure = time.perf_counter() - t0, _failure("op", e)
    else:
        elapsed = time.perf_counter() - t0
        try:
            failure = wl.check(warm, answer)
        except Exception as e:
            failure = _failure("check", e)
    return {"setup_s": elapsed, "spin": spin + speed.sample(SETUP_SPEED_S / 2),
            "failure": failure}


def cold_setups(name: str) -> list[dict]:
    """Run SETUP_REPEATS cold set-ups, one process each, one after another."""
    out = []
    for k in range(SETUP_REPEATS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(SETUP_SEED), "--seconds", "1", "--cold-setup"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"error: cold set-up {k} exited {proc.returncode}:\n{proc.stderr}")
        out.append(json.loads(proc.stdout.splitlines()[-1]))
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run the closed loop, check every answer; return the raw record."""
    from bench import tracing, workloads

    clock = time.perf_counter
    wl = workloads.WORKLOADS[name](seed)
    tracer = tracing.Tracer() if trace else None

    def region(label: str):
        return tracer.span(label) if tracer else nullcontext()

    reasons: list[str] = []
    attempted = failed = 0

    def verdict(inp, ans, stage: str) -> bool:
        nonlocal attempted, failed
        attempted += 1
        try:
            with region(tracing.CHECK):
                reason = wl.check(inp, ans)
        except Exception as e:  # a crashing check is a failed op, not a crashed run
            reason = _failure("check", e)
        if reason is not None:
            failed += 1
            if len(reasons) < MAX_REASONS:
                reasons.append(f"{stage}: {reason}")
        return reason is None

    cold = [] if trace else cold_setups(name)
    for k, c in enumerate(cold):
        attempted += 1
        if c["failure"] is not None:
            failed += 1
            if len(reasons) < MAX_REASONS:
                reasons.append(f"cold warm-up {k}: {c['failure']}")

    with tracer.installed() if tracer else nullcontext():
        # this process's own set-up is untimed, but traced when tracing
        with region(tracing.SETUP):
            wl.setup()
            warm = wl.make_input(-1)
            warm_answer = wl.run(warm)
        verdict(warm, warm_answer, "warm-up")
        gc.collect()

        latencies: list[float] = []
        stamps: list[float] = []
        speed_samples: list[list[float]] = []
        keys: list = []
        mix: dict[str, int] = {}
        completed = 0
        rss_mb = None
        i = 0
        loop_start = clock()
        while clock() - loop_start < seconds:
            with region(tracing.INPUT):
                inp = wl.make_input(i)
            mix[wl.label(inp)] = mix.get(wl.label(inp), 0) + 1
            answer = None
            t0 = clock()
            try:
                with region(tracing.OP):
                    answer = wl.run(inp)
            except Exception as e:  # counted as a failed op; the run goes on
                error = _failure("op", e)
            else:
                error = None
            latencies.append(clock() - t0)
            stamps.append(clock())
            speed_samples.append(speed.sample(SPEED_SHARE * latencies[-1]))
            if error is not None:
                attempted += 1
                failed += 1
                if len(reasons) < MAX_REASONS:
                    reasons.append(f"op {i}: {error}")
            elif verdict(inp, answer, f"op {i}"):
                completed += 1
            if i + 1 == RSS_OPS:
                rss_mb = _peak_rss_mb()
            if i < DIGEST_OPS:
                keys.append([wl.input_key(inp),
                             None if answer is None else wl.answer_key(inp, answer)])
            i += 1
        loop_s = clock() - loop_start

    busy = sum(latencies)
    return {"workload": wl, "tracer": tracer,
            "setup_times": [c["setup_s"] for c in cold],
            "setup_slowdowns": [speed.slowdown(c["spin"], speed.SETUP_ALPHA) for c in cold],
            "rss_mb": _peak_rss_mb() if rss_mb is None else rss_mb,
            "latencies": latencies, "completed": completed, "busy_s": busy,
            "slowdowns": speed.slowdowns(stamps, speed_samples),
            "loop_s": loop_s, "attempted": attempted, "failed": failed,
            "reasons": reasons, "mix": mix, "keys": keys}


def _normalised(rec: dict) -> list[float]:
    return [t / s for t, s in zip(rec["latencies"], rec["slowdowns"])]


def end_to_end(rec: dict) -> dict[str, tuple[float, str]]:
    """Gated metrics, each time rescaled by the machine's slowdown when it was taken."""
    norm = _normalised(rec)
    setup = [t / s for t, s in zip(rec["setup_times"], rec["setup_slowdowns"])]
    return {
        "ops_per_s_norm": (rec["completed"] / sum(norm), "1/s"),
        "op_p50_ms_norm": (statistics.median(norm) * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rec["rss_mb"], "MB"),
    }


def report(rec: dict, seed: int, seconds: float, trace: bool, import_s: float) -> dict:
    from bench import stats, tracing

    lat = rec["latencies"]
    tail = stats.tail_percentile(len(lat))
    out = {
        "workload": rec["workload"].name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "python": platform.python_version(),
        "import_s": import_s, "setup_s_runs": rec["setup_times"],
        "setup_slowdowns": rec["setup_slowdowns"],
        "peak_rss_mb_end": _peak_rss_mb(),
        "ops": len(lat), "loop_s": rec["loop_s"],
        "ops_per_s": rec["completed"] / rec["busy_s"],
        "slowdown": statistics.mean(rec["slowdowns"]),
        "fail_share": rec["failed"] / max(rec["attempted"], 1),
        "failures": rec["reasons"], "mix": rec["mix"],
        "latency": {"samples": len(lat), "p50_ms": statistics.median(lat) * 1e3,
                    "tail": None if tail is None else {
                        "percentile": float(tail),
                        "ms": stats.nearest_rank(lat, tail) * 1e3}},
        "size": rec["workload"].size(),
        "digest": {"ops": len(rec["keys"]),
                   "inputs": _digest([k[0] for k in rec["keys"]]),
                   "answers": _digest([k[1] for k in rec["keys"]])},
    }
    tracer = rec["tracer"]
    if tracer is not None:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{out['workload']}-seed{seed}.json.gz"
        tracer.write(path)
        out["spans_file"] = str(path.relative_to(ROOT))
        out["snf_shapes"] = tracing.snf_shapes(tracer)
        out["snf_repeat_across_ops"] = tracing.snf_repeat_across_ops(tracer)
    return out


def per_layer(rec: dict) -> dict[str, tuple[float, str]]:
    from bench import tracing

    out = tracing.layer_metrics(rec["tracer"], len(rec["latencies"]))
    out["trace.ops_per_s_norm"] = (rec["completed"] / sum(_normalised(rec)), "1/s")
    out["trace.spans"] = (len(rec["tracer"].names), "count")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cold-setup", action="store_true",
                        help="only time one cold set-up, print it as JSON")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # a cold set-up samples the machine's speed before simdiff is imported, too
    spin = speed.sample(SETUP_SPEED_S / 2) if args.cold_setup else []
    t0 = time.perf_counter()
    import_simdiff()
    from bench import workloads
    import_s = time.perf_counter() - t0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(sorted(workloads.WORKLOADS))}")
    if args.cold_setup:
        print(json.dumps(cold_setup(args.workload, args.seed, t0, spin)))
        return 0

    rec = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = per_layer(rec) if args.trace else end_to_end(rec)
    print(json.dumps(report(rec, args.seed, args.seconds, bool(args.trace), import_s)))
    print(json.dumps({
        "correct": rec["failed"] == 0,
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
