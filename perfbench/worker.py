"""One benchmark run in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 [--spans FILE]
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

Pins BLAS to one thread, imports mixwave from the checkout's src/ and
generates the workload's inputs (together the set-up time), times a
fixed-work machine-speed probe, runs the workload once and prints one JSON
line: set-up and wall times, peak RSS, the verdict, outcome counters and,
when traced, the per-layer summary.  With --setup-only it stops after the
set-up and prints only the set-up time.  Exit code 2 means mixwave could not
be imported from this checkout.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def machine_probe() -> float:
    """Seconds for a fixed amount of FFT and interpreter work."""
    import numpy as np

    x = np.random.default_rng(0).standard_normal(1 << 15)
    t0 = time.perf_counter()
    for _ in range(40):
        x = np.fft.irfft(np.fft.rfft(x), n=x.size)
    acc = 0
    for i in range(200_000):
        acc += i * i
    return time.perf_counter() - t0


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln})
    except OSError:
        return None
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None, help="write the traced spans to this CSV")
    ap.add_argument("--setup-only", action="store_true", help="stop after the set-up")
    args = ap.parse_args(argv)

    # before numpy is first imported, so that OpenBLAS starts one thread
    for key in BLAS_ENV:
        os.environ[key] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import mixwave
    except ImportError as exc:
        print(f"cannot import mixwave from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(mixwave.__file__).resolve().parent != ROOT / "src" / "mixwave":
        print(f"mixwave was imported from {mixwave.__file__}, not this checkout",
              file=sys.stderr)
        return 2

    import layers
    import workloads

    prepare, execute = workloads.WORKLOADS[args.workload]
    inputs = prepare(args.seed)
    setup_s = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    record = {"setup_s": setup_s, "probe_s": machine_probe(), "trace": args.trace}

    tracer = layers.Tracer() if args.trace else None
    t0 = time.perf_counter()
    try:
        if tracer is not None:
            with tracer:
                verdict = execute(inputs)
        else:
            verdict = execute(inputs)
        record.update(gates={k: bool(v) for k, v in verdict.gates.items()},
                      quantities={k: float(v) for k, v in verdict.quantities.items()},
                      counters={k: float(v) for k, v in verdict.counters.items()})
    except Exception:
        record["error"] = traceback.format_exc(limit=4)
    record["wall_s"] = time.perf_counter() - t0
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        record["layers"] = tracer.summary()
        record["errors"] = {f"{n}:{e}": c for (n, e), c in tracer.errors.items()}
        if args.spans:
            tracer.write_spans(args.spans)
    record["env"] = environment()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
