"""Spans around calls into disspec, recorded from outside the package.

``Tracer.install`` replaces every public function of the layer modules, the
public methods of ``SymbolPropagator``, and every name bound to one of those
functions by import in another disspec module (``disspec.propagator.
eigenvalues``, ``disspec.cli.gap_scan``, ...) with a wrapper that records a
span: name, start, end, parent and the exception type if one escaped.
``uninstall`` puts the originals back.  Nothing inside the package changes.

Spans are kept in memory per job.  A span's self time is its duration minus
the durations of its direct children; calls are synchronous and
single-threaded, so children nest inside their parent and the self times of
one job partition the job's root span exactly.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

#: layer name -> disspec modules in it
LAYERS = {
    "core_model": ("core_model",),
    "spectral": ("spectral",),
    "propagator": ("propagator",),
    "lyapunov": ("lyapunov",),
    "decay_lab": ("decay_lab",),
    "cli_artifacts": ("cli", "artifacts"),
}
CLASS_METHODS = {"propagator": {"SymbolPropagator": (
    "__init__", "r_many", "apply", "propagate_many", "operator_norms")}}
ROOT = "harness.job"
_MODULE_LAYER = {m: layer for layer, mods in LAYERS.items() for m in mods}
ARTIFACT_WRITERS = ("artifacts.atomic_write_text", "artifacts.write_csv",
                    "artifacts.write_json", "artifacts.append_jsonl")


def _audit_state_evals(fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    n_freq = np.atleast_1d(bound.arguments["xi"]).size
    # frequencies x states (6 basis + random) x 5 stencil points x 24 samples
    return n_freq * (6 + bound.arguments["n_random"]) * 5 * 24


#: span name -> info(original, args, kwargs, result), stored with the span
#: when the call returns
_INFO = {
    "propagator.SymbolPropagator.init":
        lambda fn, a, k, r: (len(a[0].grid), int(a[0].ambiguous.sum())),
    "propagator.SymbolPropagator.r_many":
        lambda fn, a, k, r: len(a[0].grid) * np.atleast_1d(a[1] if len(a) > 1 else k["times"]).size,
    "spectral.gap_scan": lambda fn, a, k, r: len(r.grid),
    "lyapunov.audit_inequality": _audit_state_evals,
}


class Tracer:
    """Installs span-recording wrappers into the imported disspec package."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start_ns, end_ns, parent, exc, info]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, tuple] = {}   # id(original) -> (original, wrapper)

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        info = _INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(rec)
            result = None
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                rec[4] = type(exc).__name__
                raise
            finally:
                rec[2] = clock()
                stack.pop()
                if info is not None and rec[4] is None:
                    rec[5] = info(fn, args, kwargs, result)
        return wrapper

    def _targets(self):
        """(owner, attribute, span name) of every function to wrap."""
        for layer_mods in LAYERS.values():
            for mod_name in layer_mods:
                mod = importlib.import_module(f"disspec.{mod_name}")
                for attr, obj in vars(mod).items():
                    if (inspect.isfunction(obj) and not attr.startswith("_")
                            and obj.__module__ == mod.__name__):
                        yield mod, attr, f"{mod_name}.{attr}"
                for cls_name, methods in CLASS_METHODS.get(mod_name, {}).items():
                    cls = getattr(mod, cls_name)
                    for meth in methods:
                        label = "init" if meth == "__init__" else meth
                        yield cls, meth, f"{mod_name}.{cls_name}.{label}"

    def install(self) -> None:
        """Replace every target, wherever a disspec namespace binds it."""
        if self._patches:
            return
        if not self._wrappers:
            for owner, attr, name in self._targets():
                original = vars(owner)[attr]
                self._wrappers[id(original)] = (original, self._wrap(name, original))
        # the home modules, the modules that imported a name with
        # `from .x import f`, the package itself, and the wrapped classes
        owners = [mod for mod_name, mod in list(sys.modules.items())
                  if mod_name == "disspec" or mod_name.startswith("disspec.")]
        owners += [owner for owner, _, _ in self._targets() if isinstance(owner, type)]
        for owner in dict.fromkeys(owners):
            for attr, obj in list(vars(owner).items()):
                entry = self._wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(owner, attr, entry[1])
                    self._patches.append((owner, attr, obj))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def start_job(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self._stack.append(0)
        self.spans.append([ROOT, time.perf_counter_ns(), 0, -1, None, None])

    def end_job(self) -> list[list]:
        self.spans[0][2] = time.perf_counter_ns()
        self._stack.clear()
        job = [list(s) for s in self.spans]
        self.spans.clear()
        return job


def self_times(job: list[list]) -> list[int]:
    """Self time in ns of each span of one job."""
    child = [0] * len(job)
    for name, t0, t1, parent, _, _ in job:
        if parent >= 0:
            child[parent] += t1 - t0
    return [t1 - t0 - c for (_, t0, t1, _, _, _), c in zip(job, child)]


def layer_of(span_name: str) -> str:
    head = span_name.split(".", 1)[0]
    return _MODULE_LAYER.get(head, "harness")


def job_metrics(job: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced job (times in s)."""
    selfs = self_times(job)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    errors: dict[str, int] = {}
    info: dict[str, list] = {}
    layer_s = {layer: 0.0 for layer in (*LAYERS, "harness")}
    gap_anchor = [-1] * len(job)   # nearest gap_scan ancestor that refused
    refusal_freqs = refusals = 0
    for i, ((name, t0, t1, parent, exc, inf), s) in enumerate(zip(job, selfs)):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + s * 1e-9
        total_s[name] = total_s.get(name, 0.0) + (t1 - t0) * 1e-9
        layer_s[layer_of(name)] += s * 1e-9
        if exc is not None:
            errors[name] = errors.get(name, 0) + 1
        if inf is not None:
            info.setdefault(name, []).append(inf)
        if name == "spectral.gap_scan" and exc == "CertificateRefused":
            gap_anchor[i] = i
            refusals += 1
        elif parent >= 0:
            gap_anchor[i] = gap_anchor[parent]
        if name == "spectral.eigenvalues" and gap_anchor[i] >= 0:
            refusal_freqs += 1

    def c(name):
        return float(calls.get(name, 0))

    def s(name):
        return self_s.get(name, 0.0)

    init = info.get("propagator.SymbolPropagator.init", [])
    freqs = float(sum(n for n, _ in init))
    ambiguous = float(sum(a for _, a in init))
    cells = float(sum(info.get("propagator.SymbolPropagator.r_many", [])))
    gap_freqs = float(sum(info.get("spectral.gap_scan", [])))
    eig_calls = c("spectral.eigenvalues")
    m = {
        "core_model.build_symbol.calls": c("core_model.build_symbol"),
        "core_model.build_symbol.self_s": s("core_model.build_symbol"),
        "core_model.char_poly.calls": c("core_model.char_poly"),
        "core_model.char_poly.self_s": s("core_model.char_poly"),
        "spectral.eigenvalues.calls": eig_calls,
        "spectral.eigenvalues.self_s": s("spectral.eigenvalues"),
        "spectral.eigenvalues.us_per_call":
            s("spectral.eigenvalues") / eig_calls * 1e6 if eig_calls else 0.0,
        "spectral.eigenvalues.errors": float(errors.get("spectral.eigenvalues", 0)),
        "spectral.gap_scan.self_s": s("spectral.gap_scan"),
        "spectral.gap_scan.freqs": gap_freqs + refusal_freqs,
        "spectral.gap_scan.refusals": float(refusals),
        "propagator.SymbolPropagator.init.self_s": s("propagator.SymbolPropagator.init"),
        "propagator.SymbolPropagator.init.total_s":
            total_s.get("propagator.SymbolPropagator.init", 0.0),
        "propagator.SymbolPropagator.freqs": freqs,
        "propagator.ambiguous_ratio": ambiguous / freqs if freqs else 0.0,
        "propagator.P_bytes": freqs * 216 * 16,
        "propagator.r_many.self_s": s("propagator.SymbolPropagator.r_many"),
        "propagator.r_many.cells": cells,
        "propagator.r_many.ns_per_cell":
            s("propagator.SymbolPropagator.r_many") / cells * 1e9 if cells else 0.0,
        "propagator.propagate_many.self_s": s("propagator.SymbolPropagator.propagate_many"),
        "propagator.apply.self_s": s("propagator.SymbolPropagator.apply"),
        "propagator.operator_norms.self_s": s("propagator.SymbolPropagator.operator_norms"),
        "propagator.putzer_r.calls": c("propagator.putzer_r"),
        "propagator.putzer_r.self_s": s("propagator.putzer_r"),
        "propagator.plancherel_norm.calls": c("propagator.plancherel_norm"),
        "propagator.plancherel_norm.self_s": s("propagator.plancherel_norm"),
        "lyapunov.audit_inequality.self_s": s("lyapunov.audit_inequality"),
        "lyapunov.audit_inequality.state_evals":
            float(sum(info.get("lyapunov.audit_inequality", []))),
        "lyapunov.sandwich_fit.self_s": s("lyapunov.sandwich_fit"),
        "lyapunov.search_constants.self_s": s("lyapunov.search_constants"),
        "decay_lab.run_decay.self_s": s("decay_lab.run_decay"),
        "decay_lab.packet_decay_time.self_s": s("decay_lab.packet_decay_time"),
        "decay_lab.build_initial_state.self_s": s("decay_lab.build_initial_state"),
        "cli.validate_config.self_s": s("cli.validate_config"),
        "cli.dispatch.self_s": s("cli.dispatch"),
        "artifacts.write.self_s": sum(s(n) for n in ARTIFACT_WRITERS),
        "trace.spans": float(len(job)),
    }
    for layer, secs in layer_s.items():
        m[f"layer.{layer}.self_s"] = secs
    return m
