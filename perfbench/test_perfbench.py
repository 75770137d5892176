"""Tests of the benchmark harness itself (not of mixwave)."""
import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import criteria  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

REFERENCES = json.loads(run.REFERENCES.read_text())


def _bindings():
    """Every module attribute a Tracer may replace, by identity."""
    mods = [m for name, m in sys.modules.items()
            if name == "mixwave" or name.startswith("mixwave.")]
    found = {(m.__name__, k): v for m in mods + [workloads] for k, v in vars(m).items()
             if callable(v)}
    found.update({("numpy.fft", k): getattr(np.fft, k) for k in layers.NUMPY_FFT})
    return found


def _traced(name, seed=0):
    prepare, execute = workloads.WORKLOADS[name]
    inputs = prepare(seed)
    with layers.Tracer() as tracer:
        verdict = execute(inputs)
    return {"counters": verdict.counters, "layers": tracer.summary(),
            "quantities": verdict.quantities, "gates": verdict.gates}


def test_untraced_run_carries_no_wrappers():
    before = _bindings()
    prepare, execute = workloads.WORKLOADS["radial"]
    execute(prepare(0))
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not any(hasattr(v, "span_name") for v in after.values())


def test_tracer_wraps_every_holder_and_restores_originals():
    import mixwave.blowup
    import mixwave.evolve
    import mixwave.experiments

    before = _bindings()
    with layers.Tracer() as tracer:
        assert tracer.active
        # names imported into other modules are wrapped there too
        assert mixwave.evolve.nonlinearity.span_name == "torus.nonlinearity"
        assert mixwave.evolve.duhamel_weights.span_name == "kernels.duhamel_weights"
        assert mixwave.blowup.to_spectral.span_name == "torus.fft"
        assert mixwave.experiments.kernel_eval.span_name == "kernels.kernel_eval"
        assert np.fft.rfftn.span_name == "torus.fft"
    assert not tracer.active
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_self_time_excludes_children_and_direct_fft_is_counted_once():
    import mixwave.torus as torus
    from mixwave.torus import Grid

    grid = Grid(1, 64, 10.0)
    u = np.cos(grid.x)
    with layers.Tracer() as tracer:
        torus.nonlinearity(grid, torus.to_spectral(grid, u), 2.0)
        np.fft.rfftn(u)
    summary = tracer.summary()
    # to_spectral, to_physical + to_spectral inside nonlinearity, one direct rfftn
    assert summary["torus.fft"]["calls"] == 4
    assert summary["torus.nonlinearity"]["calls"] == 1
    outer = [s for s in tracer.spans if s[0] == "torus.nonlinearity"][0]
    assert 0.0 <= outer[3] < outer[2]
    assert summary["torus.fft"]["extra"] > 0


def test_child_bookkeeping_is_not_parent_self_time():
    tracer = layers.Tracer()

    def slow_amount(args, kwargs, out):
        time.sleep(0.05)
        return 1.0

    child = tracer._span("torus.fft", lambda: 1, slow_amount)
    tracer._span("torus.nonlinearity", lambda: child())()
    outer = [s for s in tracer.spans if s[0] == "torus.nonlinearity"][0]
    assert outer[2] >= 0.05 and outer[3] < 0.01


def _fake_runs(workload):
    ref = REFERENCES[workload]["0"]
    good = {"trace": 0, "wall_s": 1.0, "setup_s": 0.5, "peak_rss_mb": 80.0,
            "gates": {"g": True}, "quantities": dict(ref["quantities"]),
            "counters": {}}
    gate_fails = copy.deepcopy(good)
    gate_fails["gates"]["g"] = False
    raised = {"trace": 0, "setup_s": 0.5, "error": "Traceback ..."}
    drifted = copy.deepcopy(good)
    name, (kind, tol) = next(iter(criteria.TOLERANCES[workload].items()))
    scale = abs(ref["quantities"][name]) if kind == "relative" else 1.0
    drifted["quantities"][name] += 2.0 * tol * scale
    return [good, gate_fails, raised, drifted], ref


def test_failing_gate_raised_run_and_drift_count_as_failures():
    runs, ref = _fake_runs("lifespan")
    verdict = run.judge("lifespan", runs, ref)
    assert [r["failed"] for r in runs] == [False, True, True, True]
    assert verdict["failed"] == 3
    metrics = run.end_to_end(runs, verdict, [0.5, 0.7, 0.6])
    assert metrics["pass_rate"] == 0.25
    assert metrics["setup_s"] == 0.6
    assert metrics["result_margin"] <= -1.0 + 1e-12
    assert not verdict["repeatable"]          # the drifted run disagrees with the others


def test_identical_passing_runs_have_zero_drift():
    runs, ref = _fake_runs("radial")
    verdict = run.judge("radial", [runs[0], copy.deepcopy(runs[0])], ref)
    assert verdict == {"failed": 0, "drift": 0.0, "repeatable": True}


def test_ledger_counts_are_reproduced():
    for name in ("radial", "certificate"):
        first, second = _traced(name), _traced(name)
        assert all(first["gates"].values())
        assert run.ledger_of(first) == run.ledger_of(second) == REFERENCES[name]["0"]["ledger"]
        assert first["quantities"] == REFERENCES[name]["0"]["quantities"]
    cert = REFERENCES["certificate"]["0"]["ledger"]
    assert (cert["steps"], cert["evolve.build_propagator.calls"], cert["snapshots"],
            cert["blowup.evaluate_functionals.calls"]) == (1834, 1383, 105, 7)
    rad = REFERENCES["radial"]["0"]["ledger"]
    assert (rad["radial.radial_integral.calls"], rad["kernels.kernel_eval.calls"]) == (77, 10691)


def test_stored_references_cover_every_variant_and_the_seed_commit_ledger():
    for name in run.WORKLOAD_NAMES:
        assert sorted(REFERENCES[name], key=int) == [str(v) for v in range(criteria.VARIANTS)]
    life = REFERENCES["lifespan"]["0"]
    assert (life["ledger"]["steps"], life["ledger"]["evolve.build_propagator.calls"],
            life["ledger"]["torus.nonlinearity.calls"]) == (6073, 4507, 12147)
    assert life["quantities"]["t_blowup"] == 81.99590272073814
    prof = REFERENCES["profile"]["0"]["ledger"]
    assert (prof["steps"], prof["evolve.build_propagator.calls"],
            prof["torus.nonlinearity.calls"], prof["snapshots"]) == (20001, 2, 40003, 110)


def test_seed_factors():
    assert criteria.factors(0) == (1.0, 1.0)
    assert criteria.factors(criteria.VARIANTS) == criteria.factors(0)
    seen = {criteria.factors(v) for v in range(1, criteria.VARIANTS)}
    assert len(seen) == criteria.VARIANTS - 1
    for f_eps, f_w in seen:
        assert abs(f_eps - 1.0) <= criteria.SPREAD and abs(f_w - 1.0) <= criteria.SPREAD


def test_benchmark_json_lists_the_harness_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    # lifespan and profile run by hand only: too slow for a steady median
    assert [w["name"] for w in spec["workloads"]] == ["certificate", "radial"]
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "radial",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
