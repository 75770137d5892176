"""Benchmark of the mixwave acceptance-criterion runs.

    python3 perfbench/run.py --workload lifespan|profile|certificate|radial \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record [--workload NAME]

Each run is one fresh interpreter (perfbench/worker.py) with BLAS pinned to
one thread: a closed loop with a single caller.  Runs repeat while the next
one is expected to end within --seconds (at least one; with --trace 1 at
least one untraced and one traced run, alternating).  Every run's verdict is
checked against the criterion gates and against the stored reference for its
seed.  The first run is a warm-up: its times are left out of the medians
when there are others (first runs of an invocation were slower in most
invocations measured).  Set-up time is the median over the set-ups of the
other runs and of set-up-only runs, which follow the first runs until there
are SETUP_SAMPLES set-up times.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  The lines before it print each metric with
its unit.  Details of every run (environment, verdicts, counters) go to
.perfbench_out/, with the spans of each traced run as CSV.

BENCHMARK.json lists certificate and radial.  lifespan (criterion 7, 13-18 s
a run) and profile (criterion 6, 7-9 s a run) run by hand only: in the time
the benchmark has per invocation they fit too few runs for a steady median.

--record runs every seed variant once, traced, checks that each passes its
gates, and stores its verdict and exact-count ledger in references.json.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

from criteria import VARIANTS, drift
from layers import EXTRA, LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
REFERENCES = HERE / "references.json"

WORKLOAD_NAMES = ("lifespan", "profile", "certificate", "radial")
RUN_TIMEOUT_S = 170.0     # whole invocation, so it ends well within 180 s
SETUP_SAMPLES = 5

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_rate": "ratio",
    "result_margin": "ratio",
}

SPANS = tuple(LAYERS)
PER_LAYER = {}
for _span in SPANS:
    PER_LAYER[f"{_span}.calls"] = "count"
    PER_LAYER[f"{_span}.self_s"] = "s"
    if _span in EXTRA:
        PER_LAYER[f"{_span}.{EXTRA[_span][0]}"] = EXTRA[_span][1]
PER_LAYER.update({
    "radial.quadrature_errors": "count",
    "evolve.steps": "count",
    "evolve.snapshots": "count",
    "evolve.archive_mb": "MB",
    "evolve.propagator_reuse": "ratio",
    "trace.overhead_s": "s",
    "machine.probe_s": "s",
    "ledger.mismatches": "count",
})


class HarnessError(RuntimeError):
    """The benchmark cannot run here (no program to measure)."""


def spawn(workload: str, seed: int, trace: bool, timeout: float,
          spans: Path | None = None, setup_only: bool = False) -> dict:
    """One worker run; a crash or timeout becomes a record with an error."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"trace": int(trace), "error": f"run exceeded {timeout:.0f} s"}
    if proc.returncode == 2:
        raise HarnessError(proc.stderr.strip())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"trace": int(trace),
                "error": f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


def ledger_of(run: dict) -> dict:
    """Exact counts of a traced run: outcome counters plus calls per span."""
    led = {k: run["counters"][k] for k in ("steps", "snapshots") if k in run["counters"]}
    for name in SPANS:
        led[f"{name}.calls"] = run["layers"][name]["calls"]
    return led


def judge(workload: str, runs: list[dict], reference: dict) -> dict:
    """Mark each run failed or not; return counts, drift and determinism."""
    drifts = []
    failed = 0
    for run in runs:
        if "error" not in run:
            run["drift"] = drift(workload, run["quantities"], reference["quantities"])
            drifts.append(run["drift"])
        run["failed"] = ("error" in run or not all(run["gates"].values())
                         or not run["drift"] < 1.0)
        failed += run["failed"]
    ok = [r for r in runs if "error" not in r]
    repeatable = all(r["quantities"] == ok[0]["quantities"]
                     and r["counters"] == ok[0]["counters"] for r in ok)
    traced = [ledger_of(r) for r in ok if r["trace"]]
    repeatable = repeatable and all(t == traced[0] for t in traced)
    return {"failed": failed, "drift": max(drifts) if drifts else math.inf,
            "repeatable": repeatable}


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else math.inf


def end_to_end(runs: list[dict], verdict: dict, setups: list[float]) -> dict:
    """Medians over the untraced runs but the warm-up and over the set-up
    times; pass_rate and result_margin over all runs."""
    plain = [r for r in runs if not r["trace"] and "error" not in r]
    n = len(runs)
    return {
        "wall_s": _median(r["wall_s"] for r in plain[1:] or plain),
        "setup_s": _median(setups),
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in plain),
        "pass_rate": (n - verdict["failed"]) / n,
        "result_margin": 1.0 - verdict["drift"],
    }


def per_layer(runs: list[dict], reference: dict) -> dict:
    """Span totals of the traced runs (self times as medians) and the counters."""
    traced = [r for r in runs if r["trace"] and "error" not in r]
    plain = [r for r in runs if not r["trace"] and "error" not in r]
    if not traced:
        return {name: math.nan for name in PER_LAYER}
    med = _median
    out = {}
    for name in SPANS:
        out[f"{name}.calls"] = traced[0]["layers"][name]["calls"]
        out[f"{name}.self_s"] = med(r["layers"][name]["self_s"] for r in traced)
        if name in EXTRA:
            out[f"{name}.{EXTRA[name][0]}"] = traced[0]["layers"][name]["extra"]
    first = traced[0]
    steps = first["counters"].get("steps", 0)
    builds = first["layers"]["evolve.build_propagator"]["calls"]
    ledger = ledger_of(first)
    out.update({
        "radial.quadrature_errors": first["errors"].get(
            "radial.radial_integral:QuadratureError", 0),
        "evolve.steps": steps,
        "evolve.snapshots": first["counters"].get("snapshots", 0),
        "evolve.archive_mb": first["counters"].get("archive_mb", 0.0),
        "evolve.propagator_reuse": 1.0 - builds / steps if steps else 0.0,
        "trace.overhead_s": (med(r["wall_s"] for r in traced)
                             - med(r["wall_s"] for r in plain)),
        "machine.probe_s": med(r["probe_s"] for r in runs if "probe_s" in r),
        "ledger.mismatches": sum(ledger.get(k) != v
                                 for k, v in reference["ledger"].items()),
    })
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run workers while the next is expected to end within `seconds`; return the
    result and the details."""
    references = json.loads(REFERENCES.read_text())
    reference = references[workload][str(seed % VARIANTS)]
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    start = time.perf_counter()
    runs: list[dict] = []
    setups: list[float] = []
    durations: list[float] = []
    while True:
        elapsed = time.perf_counter() - start
        kinds = {r["trace"] for r in runs}
        enough = kinds == ({0, 1} if trace else {0})
        expected_end = elapsed + (statistics.median(durations) if durations else 0.0)
        if (enough and expected_end > seconds) or (runs and elapsed >= RUN_TIMEOUT_S / 2):
            break
        traced = trace and len(runs) % 2 == 1
        spans = OUT_DIR / f"spans-{tag}-{len(runs)}.csv" if traced else None
        t0 = time.perf_counter()
        runs.append(spawn(workload, seed, traced, RUN_TIMEOUT_S - elapsed, spans))
        durations.append(time.perf_counter() - t0)
        extra = []
        if not trace and len(setups) + 1 < SETUP_SAMPLES:
            extra.append(spawn(workload, seed, False, RUN_TIMEOUT_S / 4, setup_only=True))
        timed = (runs[-1], *extra) if len(runs) > 1 else extra
        setups += [r["setup_s"] for r in timed if "setup_s" in r]
    verdict = judge(workload, runs, reference)
    metrics = (per_layer(runs, reference) if trace
               else end_to_end(runs, verdict, setups))
    units = PER_LAYER if trace else END_TO_END
    measured = all(math.isfinite(v) for v in metrics.values())
    result = {
        "correct": verdict["failed"] == 0 and verdict["repeatable"] and measured,
        "attempted": len(runs),
        "failed": verdict["failed"],
        # JSON has no inf/nan; a metric that could not be measured reads 0
        "metrics": {k: {"value": v if math.isfinite(v) else 0.0, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    env = next((r["env"] for r in runs if "env" in r), {})
    details = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
               "env": env, "verdict": verdict, "result": result, "setups": setups,
               "runs": [{k: v for k, v in r.items() if k != "env"} for r in runs]}
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(details, indent=1))
    return result, details


def record(names) -> int:
    """Store each variant's verdict and ledger; refuse a variant that fails."""
    references = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    bad = 0
    for workload in names:
        table = {}
        for variant in range(VARIANTS):
            run = spawn(workload, variant, True, RUN_TIMEOUT_S)
            if "error" in run or not all(run["gates"].values()):
                print(f"{workload} variant {variant}: FAILED {run.get('gates')} "
                      f"{run.get('error', '')}", file=sys.stderr)
                bad += 1
                continue
            entry = {"quantities": run["quantities"], "ledger": ledger_of(run)}
            table[str(variant)] = entry
            print(f"{workload} variant {variant}: {entry}", file=sys.stderr)
        references[workload] = table
    if bad:
        return 1
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "mixwave" / "__init__.py").is_file():
        print(f"no mixwave sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.record:
            return record([args.workload] if args.workload else WORKLOAD_NAMES)
        if args.workload is None:
            ap.error("--workload is required")
        result, details = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(exc, file=sys.stderr)
        return 2
    env = details["env"]
    print(f"# {args.workload} seed {args.seed}: {result['attempted']} runs, "
          f"{result['failed']} failed; cpus {env.get('cpu_count')}, python "
          f"{env.get('python')}, numpy {env.get('numpy')}, scipy {env.get('scipy')}, "
          f"{env.get('blas')} threads {env.get('blas_threads')}")
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
