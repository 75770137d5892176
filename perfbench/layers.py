"""Per-layer tracing by wrapping the public functions of each mixwave module.

A Tracer replaces every reference to a layer function, in every mixwave module
that holds one by name, with a timing wrapper, and puts the originals back on
exit.  Callers outside mixwave must call layer functions through their module
(evolve.run, not an imported run) for the wrapper to see the call.
Spans stay in memory until the run ends.  Self time is a span's duration
minus the time covered by its child spans, the children's wrapper bookkeeping
included, so tracing costs land in no layer's self time.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter

import numpy as np

# span name -> (home module, function names)
LAYERS = {
    "evolve.run": ("mixwave.evolve", ("run",)),
    "evolve.build_propagator": ("mixwave.evolve", ("build_propagator",)),
    "evolve.etd2_step": ("mixwave.evolve", ("etd2_step",)),
    "kernels.kernel_eval": ("mixwave.kernels", ("kernel_eval",)),
    "kernels.duhamel_weights": ("mixwave.kernels", ("duhamel_weights",)),
    "torus.fft": ("mixwave.torus", ("to_spectral", "to_physical")),
    "torus.nonlinearity": ("mixwave.torus", ("nonlinearity",)),
    "torus.norms": ("mixwave.torus", ("norms",)),
    "radial.radial_integral": ("mixwave.radial", ("radial_integral",)),
    "experiments.profile_experiment": ("mixwave.experiments", ("profile_experiment",)),
    "experiments.decay_experiment": ("mixwave.experiments", ("decay_experiment",)),
    "blowup.evaluate_functionals": ("mixwave.blowup", ("evaluate_functionals",)),
    "blowup.frac_lap_phi": ("mixwave.blowup", ("frac_lap_phi",)),
    "blowup.make_eta": ("mixwave.blowup", ("make_eta",)),
}

# transforms the library also calls directly (experiments uses np.fft.rfftn);
# inside a torus.fft span they are the same work and are not counted again
NUMPY_FFT = ("rfftn", "irfftn")


def _points(args, kwargs, out):
    """Modes evaluated: the broadcast size of (t, r) or (h, r)."""
    t = args[1] if len(args) > 1 else kwargs.get("t", kwargs.get("h"))
    r = args[2] if len(args) > 2 else kwargs["r"]
    return float(np.broadcast(np.asarray(t), np.asarray(r)).size)


def _fft_mb(args, kwargs, out):
    """Megabytes read and written by to_spectral/to_physical(grid, field)."""
    return (np.asarray(args[1]).nbytes + out.nbytes) / 1e6


def _numpy_fft_mb(args, kwargs, out):
    """Megabytes read and written by np.fft.rfftn/irfftn(field, ...)."""
    return (np.asarray(args[0]).nbytes + out.nbytes) / 1e6


# span name -> (metric suffix, unit, amount of work per call)
EXTRA = {
    "kernels.kernel_eval": ("points", "count", _points),
    "kernels.duhamel_weights": ("points", "count", _points),
    "torus.fft": ("mb_moved", "MB", _fft_mb),
}


class Tracer:
    """Context manager that wraps the layer functions while it is active."""

    def __init__(self):
        self.spans: list[tuple] = []     # (name, start, duration, self, depth, extra)
        self.errors: Counter = Counter()  # (name, exception type) -> count
        self._stack: list[list] = []      # [name, child time] per open span
        self._patched: list[tuple] = []   # (owner, attribute, original)

    # -- installation ---------------------------------------------------------

    def __enter__(self):
        holders = [m for name, m in list(sys.modules.items())
                   if name == "mixwave" or name.startswith("mixwave.")]
        for name, (home, funcs) in LAYERS.items():
            amount = EXTRA[name][2] if name in EXTRA else None
            for fn_name in funcs:
                original = getattr(sys.modules[home], fn_name)
                wrapper = self._span(name, original, amount)
                for mod in holders:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)
        for fn_name in NUMPY_FFT:
            original = getattr(np.fft, fn_name)
            self._patch(np.fft, fn_name,
                        self._span("torus.fft", original, _numpy_fft_mb,
                                   fold_into="torus.fft"))
        return self

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        return False

    @property
    def active(self) -> bool:
        return bool(self._patched)

    # -- spans ----------------------------------------------------------------

    def _span(self, name, fn, extra=None, fold_into=None):
        stack = self._stack
        spans = self.spans
        errors = self.errors
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if fold_into is not None and stack and stack[-1][0] == fold_into:
                return fn(*args, **kwargs)
            t0 = clock()
            frame = [name, 0.0]
            stack.append(frame)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as exc:
                errors[name, type(exc).__name__] += 1
                raise
            finally:
                dur = clock() - t0
                stack.pop()
                amount = extra(args, kwargs, out) if extra is not None and out is not None else 0.0
                spans.append((name, t0, dur, dur - frame[1], len(stack), amount))
                # the parent is charged this wrapper's bookkeeping too, as child time
                if stack:
                    stack[-1][1] += clock() - t0

        wrapper.span_name = name
        return wrapper

    def summary(self) -> dict:
        """Per span name: calls, summed self time and summed extra amount."""
        out = {name: {"calls": 0, "self_s": 0.0, "extra": 0.0} for name in LAYERS}
        for name, _, _, self_s, _, amount in self.spans:
            rec = out[name]
            rec["calls"] += 1
            rec["self_s"] += self_s
            rec["extra"] += amount
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name,start_s,duration_s,self_s,depth,extra\n")
            t_ref = min((s[1] for s in self.spans), default=0.0)
            for name, t0, dur, self_s, depth, amount in sorted(self.spans, key=lambda s: s[1]):
                fh.write(f"{name},{t0 - t_ref:.9f},{dur:.9f},{self_s:.9f},{depth},{amount:g}\n")
