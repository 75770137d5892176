"""Command-line entry point: config parsing, scenario dispatch, artifacts.

Configuration is a flat key=value file plus flags (flags win).  Each command
in COMMANDS declares the keys it reads besides COMMON_KEYS; setting any other
key is a config error.  Every JSON summary embeds the fully resolved
configuration, and identical (config, seed) pairs produce byte-identical
outputs.

Exit codes: 0 pass, 1 quantitative-target failure, 2 execution/config error.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import io
from .blowup import (
    default_sigma0,
    frac_lap_phi,
    make_eta,
    radii_fault,
    scaling_sweep,
)
from .evolve import SolutionArchive, StepControl, initial_state, run
from .experiments import (
    GATES,
    ExperimentInvalid,
    decay_experiment,
    gate,
    lifespan_fault,
    lifespan_sweep,
    profile_experiment,
)
from .kernels import kernel_eval
from .params import P_RULES, POSITIVE, OperatorParams, symbol, theorem_hypotheses
from .radial import QuadratureError
from .torus import Grid, read_snapshot, write_snapshot

# a range rule (params.check_ranges) that only the CLI states
_NONNEGATIVE = (lambda v: v >= 0, "be nonnegative")

# key: (type, default, range rule, help); the keys without a default are
# required.  Every float must be finite.  A list key holds comma-separated
# floats, kept as text: its rule holds for each entry, and the entries must be
# finite and distinct.
CONFIG_KEYS = {
    "command": (str, None, None, "the command to run"),
    "a": (float, None, OperatorParams.RULES["a"], "local diffusivity"),
    "b": (float, None, OperatorParams.RULES["b"], "nonlocal diffusivity"),
    "sigma": (float, None, OperatorParams.RULES["sigma"], "fractional order"),
    "n": (int, None, OperatorParams.RULES["n"], "spatial dimension (1 or 2 for grids)"),
    "p": (float, 3.0, P_RULES["p"], "nonlinearity power"),
    "eps": (float, 0.01, None, "data amplitude"),
    "eps_list": (list, "", POSITIVE, "comma-separated amplitudes for sweeps"),
    "s_list": (list, "0", _NONNEGATIVE, "comma-separated Sobolev orders"),
    "grid_n": (int, 1024, Grid.RULES["N"], "grid points per dimension"),
    "box_l": (float, 100.0, Grid.RULES["L"], "box half-length"),
    "t_end": (float, 100.0, StepControl.RULES["t_end"], "time horizon"),
    "dt_max": (float, 0.05, StepControl.RULES["dt_max"], "largest time step"),
    "safety": (float, 0.1, StepControl.RULES["safety"], "adaptive step safety factor"),
    "threshold": (float, 1e6, StepControl.RULES["blowup_threshold"], "blow-up detection level"),
    "width": (float, 1.0, POSITIVE, "Gaussian datum width"),
    "linear": (bool, False, None, "disable the nonlinearity"),
    "snapshots": (bool, False, None, "write snapshot dumps (solve)"),
    "snapshots_dir": (str, "", None, "read stored snapshots (blowup-functional)"),
    "r_list": (list, "", POSITIVE, "comma-separated radii for the functional sweep"),
    "k_scale": (float, 1.0, POSITIVE, "spatial stretch K of the weight"),
    "l_eval": (float, 1280.0, POSITIVE, "evaluation window for fraclap-check"),
    "seed": (int, 0, _NONNEGATIVE, "seed of the random samples (kernels)"),
    "out": (str, "out", None, "output directory"),
}
COMMON_KEYS = ("command", "a", "b", "sigma", "n", "out")
# the largest step of the run that blowup-functional stores, whatever dt_max is
_STORED_RUN_DT_MAX = 0.02


class ConfigError(ValueError):
    pass


_BOOLS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
          **dict.fromkeys(("0", "false", "no", "off"), False)}


def _parse_value(key: str, raw: str):
    """The value of `key` read from the text `raw`, checked against its row."""
    typ, _, rule, _ = CONFIG_KEYS[key]
    try:
        if typ is bool:
            return _BOOLS[raw.strip().lower()]
        value = raw if typ is list else typ(raw)
        entries = _floats(raw) if typ is list else [value]
    except (KeyError, ValueError):
        raise ConfigError(f"invalid value for key '{key}': {raw!r}") from None
    checks = [(math.isfinite, "be finite")] if typ in (float, list) else []
    if rule:
        checks.append(rule)
    each = "entries " if typ is list else ""
    for test, words in checks:
        for v in entries:
            if not test(v):
                raise ConfigError(f"out-of-range key '{key}': {each}must {words}, got {v}")
    if len(set(entries)) < len(entries):
        raise ConfigError(f"out-of-range key '{key}': entries must be distinct, got {raw!r}")
    return value


def read_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: config file is not UTF-8 text: {exc}") from exc
    for lineno, line in enumerate(lines, 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        key = key.replace("-", "_")
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
        try:
            values[key] = _parse_value(key, raw)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return values


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mixwave",
        description="Simulation and verification suite for the mixed "
                    "local-nonlocal damped wave equation")
    ap.add_argument("command", nargs="?", choices=COMMANDS)
    ap.add_argument("--config", help="key = value config file")
    for key, (typ, _, rule, help_text) in CONFIG_KEYS.items():
        if key == "command":
            continue
        if rule:
            help_text += f"; {'distinct entries ' if typ is list else ''}must {rule[1]}"
        flag = "--" + key.replace("_", "-")
        if typ is bool:
            ap.add_argument(flag, action="store_true", default=None, help=help_text)
        else:
            ap.add_argument(flag, type=str, default=None, help=help_text)
    return ap


def resolve_config(argv) -> dict:
    ns = build_parser().parse_args(argv)
    given = read_config_file(ns.config) if ns.config else {}
    for key in CONFIG_KEYS:
        raw = getattr(ns, key)
        if raw is not None:
            given[key] = raw if isinstance(raw, bool) else _parse_value(key, raw)
    values = {k: v for k, (_, v, _, _) in CONFIG_KEYS.items() if v is not None} | given
    for key, (_, default, _, _) in CONFIG_KEYS.items():
        if default is None and key not in values:
            raise ConfigError(f"missing required key '{key}'")
    command = values["command"]
    if command not in COMMANDS:
        raise ConfigError(f"unknown command '{command}'")
    validate_ranges(values)
    keys, mode = COMMANDS[command][2], ""
    if command == "blowup-functional" and values["snapshots_dir"]:
        keys, mode = STORED_SNAPSHOT_KEYS, " with snapshots_dir"
    for key in given:
        if key not in COMMON_KEYS + keys:
            raise ConfigError(f"key '{key}' is not read by command '{command}'{mode}")
    return values


def validate_ranges(cfg: dict) -> None:
    """The range rules that no single row of CONFIG_KEYS can state."""
    params = OperatorParams(cfg["a"], cfg["b"], cfg["sigma"], cfg["n"])
    if cfg["command"] == "exponents":
        # the exponents hold for 0 <= s <= sigma_min; linear-decay fits any s
        for s in _floats(cfg["s_list"]):
            if s > params.sigma_min:
                raise ConfigError(f"out-of-range key 's_list': entries must be <= "
                                  f"sigma_min = {params.sigma_min} for exponents, got {s}")
    if cfg["command"] == "blowup-functional" and cfg["r_list"]:
        fault = radii_fault(_floats(cfg["r_list"]))
        if fault:
            raise ConfigError(f"out-of-range key 'r_list': must {fault}, "
                              f"got {cfg['r_list']!r}")
    if cfg["command"] == "lifespan-sweep":
        fault = lifespan_fault(params, cfg["p"], _floats(cfg["eps_list"]))
        if fault:
            key, words = fault
            raise ConfigError(f"out-of-range key '{key}': must {words}, got {cfg[key]!r}")
    # the largest step these runs take must advance the clock at t_end;
    # lifespan-sweep stops short of t_end, at its resolution horizon
    step = cfg["dt_max"]
    if cfg["command"] == "blowup-functional":
        step = min(step, _STORED_RUN_DT_MAX)
    if (cfg["command"] in ("solve", "profile", "blowup-functional")
            and cfg["t_end"] + step == cfg["t_end"]):
        raise ConfigError(f"out-of-range key 'dt_max': a step of {step} does not advance "
                          f"the clock at t_end = {cfg['t_end']}")


def _floats(csv_text: str) -> list[float]:
    return [float(tok) for tok in csv_text.split(",") if tok.strip()]


def _banner(params: OperatorParams, p: float) -> list[str]:
    """Print the hypotheses that (params, p) violates and return them."""
    notes = theorem_hypotheses(params, p)
    for note in notes:
        print(f"[outside theorem hypotheses] {note}")
    return notes


def _grid(cfg) -> Grid:
    return Grid(cfg["n"], cfg["grid_n"], cfg["box_l"])


# --- command implementations -------------------------------------------------
# Each takes (cfg, params, out), writes its CSV tables into out, prints
# its line and returns (summary payload, passed); main writes the summary.

def cmd_exponents(cfg, params, out) -> tuple[dict, bool]:
    rate = params.lifespan_rate(cfg["p"])
    critical = params.p_regime(cfg["p"]) == "critical"
    life = "undefined" if rate is None else f"{rate!r}"
    results = []
    for s in _floats(cfg["s_list"]):
        decay = params.decay_rate(s)
        results.append({
            "s": s,
            "decay_exp": decay,
            "alpha_min": params.alpha_min,
            "p_crit": params.p_crit,
            "lifespan_exp": rate,
            "is_critical": critical,
        })
        print(f"s={s}: p_crit={params.p_crit!r} decay_exp={decay!r} "
              f"alpha_min={params.alpha_min!r} lifespan_exp={life}")
    return {"exponents": results}, True


def cmd_kernels(cfg, params, out) -> tuple[dict, bool]:
    rng = np.random.default_rng(cfg["seed"])
    t = 10.0 ** rng.uniform(-2, 3, 2000)
    r = 10.0 ** rng.uniform(-6, 2, 2000)
    kv = kernel_eval(params, t, r)
    m = symbol(params, r)
    res1 = np.abs(kv.dk1 + kv.k1 - kv.k0) / (1.0 + np.abs(kv.k0))
    res2 = np.abs(kv.dk0 + m * kv.k1) / (1.0 + m)
    rows = zip(r, t, kv.k0, kv.k1, kv.dk0, kv.dk1)
    io.write_csv(os.path.join(out, "kernels.csv"),
                 ["r", "t", "k0", "k1", "dk0", "dk1"], rows)
    passed, margin = gate("kernel_identity", float(np.maximum(res1.max(), res2.max())))
    report = {"identity_residual_dk1": float(res1.max()),
              "identity_residual_dk0": float(res2.max()),
              "samples": int(t.size),
              "pass": passed, "margins": {"kernel_identity": margin}}
    print(f"kernel identity residuals: {res1.max():.3e}, {res2.max():.3e}")
    return report, passed


def cmd_linear_decay(cfg, params, out) -> tuple[dict, bool]:
    s_list = _floats(cfg["s_list"])
    rep = decay_experiment(params, s_list=s_list, mode="radial",
                           datum_width=cfg["width"])
    ok = True
    fits = []
    for f in rep.fits:
        rows = [(t, v, t ** (-f.target) * v, f.s, params.sigma, params.n)
                for t, v in rep.series[f.s]]
        # repr round-trips, so distinct orders name distinct files
        io.write_csv(os.path.join(out, f"decay_s{repr(f.s).removesuffix('.0')}.csv"),
                     ["t", "norm", "scaled_norm", "s", "sigma", "n"], rows)
        name = "decay_slope_l2" if f.s == 0 else "decay_slope_hs"
        passed, margin = gate(name, f.slope, f.target)
        ok = ok and passed
        fits.append({"s": f.s, "slope": f.slope, "target": f.target,
                     "deviation": f.deviation, "tolerance": GATES[name][1],
                     "pass": passed, "margins": {name: margin}})
        print(f"s={f.s}: slope={f.slope:.4f} target={f.target} "
              f"|dev|={f.deviation:.4f} -> {'pass' if passed else 'FAIL'}")
    return {"fits": fits, "pass": ok}, ok


def cmd_profile(cfg, params, out) -> tuple[dict, bool]:
    _banner(params, cfg["p"])
    rep = profile_experiment(params, p=cfg["p"], eps=cfg["eps"],
                             horizon=cfg["t_end"], grid=_grid(cfg),
                             dt_max=cfg["dt_max"], datum_width=cfg["width"],
                             linear_only=cfg["linear"])
    io.write_csv(os.path.join(out, "profile_error.csv"), ["t", "scaled_error"],
                 zip(rep.times, rep.scaled_error))
    ratio_ok, margin = gate("profile_ratio", rep.ratio, 1.0)
    tol = GATES["profile_ratio"][1]
    payload = {
        "theta": rep.theta, "tail_correction": rep.tail_correction,
        "terminal_ratio": rep.ratio, "ratio_window": [1.0 - tol, 1.0 + tol],
        "ratio_pass": ratio_ok, "margins": {"profile_ratio": margin},
        "extra_decay_slope": rep.extra_decay.slope if rep.extra_decay else None,
        "duhamel_residual": rep.duhamel_residual,
        "l2_slope": rep.l2_fit.slope if rep.l2_fit else None,
        "l2_target": rep.l2_fit.target if rep.l2_fit else None,
    }
    print(f"theta={rep.theta!r} ratio={rep.ratio!r} -> {'pass' if ratio_ok else 'FAIL'}")
    return payload, ratio_ok


def cmd_solve(cfg, params, out) -> tuple[dict, bool]:
    _banner(params, cfg["p"])
    grid = _grid(cfg)
    state, u0, u1 = initial_state(grid, eps=cfg["eps"], width=cfg["width"])
    ctrl = StepControl(t_end=cfg["t_end"], dt_max=cfg["dt_max"],
                       safety=cfg["safety"], blowup_threshold=cfg["threshold"],
                       snapshots=cfg["snapshots"], track_band=True)
    outcome = run(params, state, ctrl, p=cfg["p"], eps=cfg["eps"], u0=u0, u1=u1,
                  linear_only=cfg["linear"])
    io.write_csv(os.path.join(out, "series.csv"),
                 ["t", "l2", "hs", "linf", "l1", "mass", "nonlinear_mass"],
                 outcome.series.as_rows())
    payload = {
        "status": outcome.status.value,
        "t_final": outcome.t_final,
        "crossings": {f"{k:g}": v for k, v in sorted(outcome.crossings.items())},
        "diagnostics": outcome.diagnostics,
        "initial_mass": outcome.mass.initial_mass,
        "nonlinear_mass": outcome.mass.nonlinear_mass,
    }
    if cfg["snapshots"] and outcome.archive is not None:
        arc = outcome.archive
        write_snapshot(os.path.join(out, "data_u0.bin"), grid, 0.0, arc.u0)
        write_snapshot(os.path.join(out, "data_u1.bin"), grid, 0.0, arc.u1)
        for i, (t, u) in enumerate(zip(arc.times, arc.fields)):
            write_snapshot(os.path.join(out, f"snap_{i:05d}.bin"), grid, t, u)
        io.write_slice_csv(os.path.join(out, "final_slice.csv"), grid,
                           arc.times[-1], arc.fields[-1])
    print(f"status={outcome.status.value} t_final={outcome.t_final!r}")
    return payload, True


def cmd_lifespan(cfg, params, out) -> tuple[dict, bool]:
    notes = _banner(params, cfg["p"])
    eps_list = _floats(cfg["eps_list"])
    rep = lifespan_sweep(params, cfg["p"], eps_list, _grid(cfg), dt_max=cfg["dt_max"],
                         t_cap=cfg["t_end"], threshold=cfg["threshold"])
    rows = [(r.epsilon, r.t_blowup, *r.threshold_band, r.flagged) for r in rep.records]
    io.write_csv(os.path.join(out, "lifespan.csv"),
                 ["eps", "t_blowup", "band_low", "band_high", "flag"], rows)
    if rep.slope is None:
        print(f"critical-case linear fit residual {rep.linear_residual!r} (exploratory)")
        return {"critical_fit_slope": rep.critical_fit.slope if rep.critical_fit else None,
                "critical_fit_intercept": rep.critical_fit.intercept if rep.critical_fit else None,
                "linear_residual": rep.linear_residual,
                "pass": True,      # exploratory: no gate in the critical case
                "hypothesis_notes": notes}, True
    passed, margin = gate("lifespan_slope", rep.slope, rep.target)
    print(f"lifespan slope {rep.slope:.4f} target {rep.target} -> "
          f"{'pass' if passed else 'FAIL'}")
    return {"slope": rep.slope, "target": rep.target, "pass": passed,
            "tolerance": GATES["lifespan_slope"][1], "margins": {"lifespan_slope": margin},
            "hypothesis_notes": notes}, passed


def _load_archive(cfg, params) -> SolutionArchive:
    direc = cfg["snapshots_dir"]
    names = sorted(fn for fn in os.listdir(direc)
                   if fn.startswith("snap_") and fn.endswith(".bin"))
    if not names:
        raise ConfigError(f"no snap_*.bin files in '{direc}'")
    grid0, _, u0 = read_snapshot(os.path.join(direc, "data_u0.bin"))
    if grid0.n != cfg["n"]:
        raise ConfigError(f"key 'n' is {cfg['n']}, but the snapshots in '{direc}' "
                          f"are {grid0.n}-dimensional")
    stored = []
    for fn in ("data_u1.bin", *names):
        grid, t, u = read_snapshot(os.path.join(direc, fn))
        if grid != grid0:
            raise ConfigError(f"snapshot {fn} has a different grid than data_u0.bin")
        stored.append((t, u))
    (_, u1), *snaps = stored
    # the snapshots store the scaled data, not eps; an unknown eps is nan, as in run
    arc = SolutionArchive(grid0, params, float("nan"), u0, u1)
    arc.times = [t for t, _ in snaps]
    arc.fields = [u for _, u in snaps]
    return arc


def _archived_run(cfg, params) -> SolutionArchive:
    state, u0, u1 = initial_state(_grid(cfg), eps=cfg["eps"], width=cfg["width"])
    ctrl = StepControl(t_end=cfg["t_end"], dt_max=min(cfg["dt_max"], _STORED_RUN_DT_MAX),
                       blowup_threshold=cfg["threshold"],
                       record_t0=0.02, record_ratio=1.04, snapshots=True)
    outcome = run(params, state, ctrl, p=cfg["p"], eps=cfg["eps"], u0=u0, u1=u1)
    print(f"stored run: {outcome.status.value} horizon {outcome.archive.times[-1]!r}")
    return outcome.archive


def cmd_blowup_functional(cfg, params, out) -> tuple[dict, bool]:
    _banner(params, cfg["p"])
    if cfg["snapshots_dir"]:
        arc = _load_archive(cfg, params)
    else:
        arc = _archived_run(cfg, params)
    t_max = arc.times[-1]
    if cfg["r_list"]:
        r_list = _floats(cfg["r_list"])
    else:
        r_hi = (0.45 * t_max) ** (1.0 / (2.0 * params.sigma_min))
        r_list = list(np.geomspace(r_hi / math.sqrt(10.0), r_hi, 7))
    eta = make_eta(cfg["p"])
    sweep = scaling_sweep(arc, eta, r_list, cfg["p"], K=cfg["k_scale"])
    dev = {k: abs(sweep.exponents[k] - sweep.targets[k]) for k in sweep.exponents}
    j4_ok, margin = gate("j4_exponent", sweep.exponents["j4"], sweep.targets["j4"])
    _, slack = GATES["j_tilde_slack"]
    tilde_ok = all(rep.j_r_tilde <= rep.j_r * (1 + slack) for rep in sweep.reports)
    passed = j4_ok and tilde_ok
    payload = {
        "radii": sweep.radii,
        "exponents": sweep.exponents,
        "targets": sweep.targets,
        "deviations": dev,
        "eta_condition_log10": eta.condition_log10,
        "bound_constants": sweep.bound_constants,
        "j_tilde_le_j": tilde_ok,
        "functionals": [
            {"R": r, "j_r": rep.j_r, "j_r_tilde": rep.j_r_tilde,
             "terms": list(rep.terms), "data_term": rep.data_term,
             "identity_residual": rep.identity_residual}
            for r, rep in zip(sweep.radii, sweep.reports)],
        "pass": passed,
        "margins": {"j4_exponent": margin},
    }
    print(f"j4 exponent {sweep.exponents['j4']:.4f} target {sweep.targets['j4']:.4f} "
          f"-> {'pass' if passed else 'FAIL'}")
    return payload, passed


def cmd_fraclap(cfg, params, out) -> tuple[dict, bool]:
    s0 = default_sigma0(params.sigma)
    r1 = frac_lap_phi(params.sigma, s0, L_eval=cfg["l_eval"])
    r2 = frac_lap_phi(params.sigma, s0, L_eval=2.0 * cfg["l_eval"])
    rel = abs(r1.ratio_sup - r2.ratio_sup) / r1.ratio_sup
    passed, margin = gate("fraclap_change", rel)
    payload = {"sigma0": s0, "ratio_sup": r1.ratio_sup,
               "ratio_sup_doubled": r2.ratio_sup, "relative_change": rel,
               "pass": passed, "margins": {"fraclap_change": margin}}
    print(f"ratio sup {r1.ratio_sup!r}, doubled-domain change {rel:.3%} -> "
          f"{'pass' if passed else 'FAIL'}")
    return payload, passed


# the keys blowup-functional reads when snapshots_dir names stored snapshots;
# without it, the run that makes them reads eps and the grid and step keys too
STORED_SNAPSHOT_KEYS = ("p", "snapshots_dir", "r_list", "k_scale")

# name: (command function, summary file, keys it reads besides COMMON_KEYS)
COMMANDS = {
    "kernels": (cmd_kernels, "kernel_report.json", ("seed",)),
    "linear-decay": (cmd_linear_decay, "linear_decay.json", ("s_list", "width")),
    "profile": (cmd_profile, "profile.json",
                ("p", "eps", "grid_n", "box_l", "t_end", "dt_max", "width", "linear")),
    "solve": (cmd_solve, "run.json",
              ("p", "eps", "grid_n", "box_l", "t_end", "dt_max", "safety", "threshold",
               "width", "linear", "snapshots")),
    "lifespan-sweep": (cmd_lifespan, "lifespan.json",
                       ("p", "eps_list", "grid_n", "box_l", "t_end", "dt_max",
                        "threshold")),
    "blowup-functional": (cmd_blowup_functional, "blowup_functional.json",
                          STORED_SNAPSHOT_KEYS + ("eps", "grid_n", "box_l", "t_end",
                                                  "dt_max", "threshold", "width")),
    "fraclap-check": (cmd_fraclap, "fraclap.json", ("l_eval",)),
    "exponents": (cmd_exponents, "exponents.json", ("p", "s_list")),
}


def main(argv=None) -> int:
    try:
        cfg = resolve_config(sys.argv[1:] if argv is None else argv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    command, summary, _ = COMMANDS[cfg["command"]]
    try:
        params = OperatorParams(cfg["a"], cfg["b"], cfg["sigma"], cfg["n"])
        # an error inside leaves no directory that this call created behind
        with io.output_dir(cfg["out"]) as out:
            payload, passed = command(cfg, params, out)
            io.write_json(os.path.join(out, summary),
                          {"config": dict(sorted(cfg.items())), **payload})
    # a grid too large to allocate raises numpy's "Unable to allocate ..."
    except (ConfigError, ExperimentInvalid, QuadratureError, ValueError,
            MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
