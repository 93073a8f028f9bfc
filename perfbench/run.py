"""The canonfn benchmark.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Runs passes of one workload until --seconds have gone by.  A pass is a fresh
worker process that sets up, answers the workload's whole query list in a
closed loop (one caller, the next query after the previous answer), and
checks every answer; passes run one after another, never side by side.
Times are taken at the reference machine speed (speed.py) and each query
counts with its median over the passes.  With --trace 0 it reports the
end-to-end metrics; with --trace 1 it alternates untraced and traced passes
and reports the per-layer metrics.  The last line of standard output is one
JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import pathlib
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from speed import REFERENCE_S, scaled_latencies, scaled_setup  # noqa: E402
from tracer import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = [("wall_s", "s"), ("latency_p50_ms", "ms"), ("latency_p90_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MiB")]

RUN_LIMIT_S = 170  # a run ends within 180 s, whatever --seconds says


def run_pass(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    started = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
           "1" if traced else "0", repr(started)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"crashed": f"pass did not end within {timeout:.0f} s"}
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"crashed": f"worker exit {proc.returncode}: {' | '.join(tail)}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q / 100) - 1)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # On SIGTERM, unwind through subprocess.run, which kills the running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "canonfn" / "__init__.py").is_file():
        sys.stderr.write(f"error: no canonfn sources under {ROOT / 'src'}\n")
        return 2

    plain, traced = [], []
    start = time.monotonic()
    while True:
        use_trace = bool(args.trace) and len(traced) < len(plain)
        timeout = start + RUN_LIMIT_S - time.monotonic()
        result = run_pass(args.workload, args.seed, use_trace, timeout)
        (traced if use_trace else plain).append(result)
        if "crashed" in result:
            break
        elapsed = time.monotonic() - start
        enough = len(plain) >= 3 and (len(traced) >= 2 or not args.trace)
        if (enough and elapsed >= args.seconds) or elapsed >= RUN_LIMIT_S / 2:
            break

    passes = plain + traced
    crashed = [p["crashed"] for p in passes if "crashed" in p]
    good = [p for p in passes if "crashed" not in p]
    attempted = sum(len(p["digests"]) for p in good) or 1
    failures = [f for p in good for f in p["failures"]]
    digest_lists = {tuple(p["digests"]) for p in good}
    correct = not crashed and not failures and len(digest_lists) == 1

    for p in crashed:
        print(f"FAILED pass: {p}")
    for i, what, why in failures[:20]:
        print(f"FAILED query {i}: {what}: {why}")
    if len(digest_lists) > 1:
        differ = [i for i, ds in enumerate(zip(*digest_lists)) if len(set(ds)) > 1]
        print(f"FAILED determinism: reports differ between passes at queries {differ[:20]}")
    if crashed and not good:
        return 1

    plain = [p for p in plain if "crashed" not in p]
    traced = [p for p in traced if "crashed" not in p]
    for p in good:
        p["scaled"] = scaled_latencies(p["latencies"], p["cals"])
    latencies = [statistics.median(lat) for lat in zip(*(p["scaled"] for p in plain))]
    shares = good[-1]["shares"]
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes, {len(latencies)} queries a pass, "
          f"{len(failures)} failed (failed_ratio {len(failures) / attempted:.4f})")
    print("traffic: " + ", ".join(f"{k} {v:.3f}" if isinstance(v, float) else f"{k} {v}"
                                  for k, v in shares.items()))
    print(f"machine speed: calibration loop median "
          f"{1000 * statistics.median(c for p in good for c in p['cals']):.3f} ms, "
          f"reference {1000 * REFERENCE_S:.3f} ms")
    print("report digest: " + hashlib.sha256("".join(good[0]["digests"]).encode())
          .hexdigest()[:16])

    if args.trace:
        layers = {name: statistics.median(p["layers"][name] for p in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_ratio"] = (statistics.median(sum(p["scaled"]) for p in traced)
                                          / statistics.median(sum(p["scaled"]) for p in plain))
        print("largest self time: " + ", ".join(traced[0]["top_self"]))
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        values = {
            "wall_s": sum(latencies),
            "latency_p50_ms": 1000 * percentile(latencies, 50),
            "latency_p90_ms": 1000 * percentile(latencies, 90),
            "setup_s": statistics.median(scaled_setup(p["setup_s"], p["cals"]) for p in plain),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
