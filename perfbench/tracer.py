"""Spans around the public functions of each tdcslab layer.

The spans are recorded from the benchmark's own files: ``Tracer.install``
replaces each traced function, in every tdcslab namespace that binds it,
with a wrapper that records a span (name, start, end, parent span), and
``uninstall`` puts the originals back.  Spans stay in memory until
``summary`` aggregates them.
"""

import functools
import importlib
import threading
import time

# (layer module, public function); the metric prefix is "<layer>.<function>"
TRACED = (
    ("simharness", "run_ber_scenario"),
    ("simharness", "build_system"),
    ("simharness", "records_to_csv"),
    ("seqcore", "periodic_xcorr_fft"),
    ("seqcore", "kronecker_synthesize"),
    ("waveform", "synth_fmw"),
    ("waveform", "gen_phase_sequence"),
    ("spectrum", "mark_from_bands"),
    ("spectrum", "mismatch_mask"),
    ("allocation", "plan_shifts"),
    ("channel", "apply_single_path"),
    ("channel", "apply_multipath"),
    ("receiver", "demodulate_window"),
    ("receiver", "rake_demodulate"),
    ("receiver", "mmse_fde"),
    ("cli", "emit_results"),
)

ENGINE = "simharness.run_ber_scenario"


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = []            # [name, start, end, parent index or None]
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches = []         # (namespace, attribute, original)

    def install(self):
        layers = {layer for layer, _ in TRACED}
        namespaces = [self.package] + [
            importlib.import_module(f"{self.package.__name__}.{layer}")
            for layer in sorted(layers)
        ]
        for layer, name in TRACED:
            module = importlib.import_module(f"{self.package.__name__}.{layer}")
            original = getattr(module, name)
            wrapper = self._wrap(f"{layer}.{name}", original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        self._patches.append((ns, attr, original))

    def uninstall(self):
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            span = [name, time.perf_counter(), None, stack[-1] if stack else None]
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter()
        return wrapper

    def summary(self) -> dict:
        """Calls and seconds per traced function, plus the engine's self time.

        The engine's self time is the duration of each ``run_ber_scenario``
        span minus the durations of its direct child spans.
        """
        out = {f"{layer}.{name}": {"calls": 0, "s": 0.0} for layer, name in TRACED}
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            out[name]["calls"] += 1
            out[name]["s"] += end - start
            if parent is not None:
                child_s[parent] += end - start
        out["engine_self_s"] = sum(
            end - start - child_s[i]
            for i, (name, start, end, _) in enumerate(self.spans)
            if name == ENGINE
        )
        return out
