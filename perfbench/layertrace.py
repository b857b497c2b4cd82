"""Spans and call counts at the layer entry points of ionnet, recorded
from outside the package.

``install()`` replaces each listed function by a wrapper at every
attribute of every loaded ``ionnet`` module that binds it. This matters
because the drivers import names directly (``from .montecarlo import
exact_branches``): patching only the defining module would miss those
calls. Spans (name, start, end, parent) are kept in memory and exported
once at the end; self time is derived from them afterwards by
``self_times``.
"""

import sys
import time

# span name -> (defining module, function)
SPANS = {
    "scenario.load": [
        ("ionnet.scenario", "load_scenario"),
        ("ionnet.scenario", "loads_scenario"),
    ],
    "protocols.driver": [("ionnet.cli", "run_subcommand")],
    "montecarlo.exact_branches": [("ionnet.montecarlo", "exact_branches")],
    "montecarlo.run_protocol": [("ionnet.montecarlo", "run_protocol")],
    "montecarlo.parity_scan": [("ionnet.montecarlo", "parity_scan")],
    "photonics.herald_states": [("ionnet.photonics", "conditional_herald_states")],
    "gates.spin_echo": [("ionnet.gates", "spin_echo_ramsey")],
    "detection.readout": [("ionnet.detection", "apply_readout_array")],
    "detection.confusion_matrix": [("ionnet.detection", "confusion_matrix")],
    "fitting.rate_fit": [("ionnet.fitting", "fit_exponential_rate")],
    "fitting.cosine_fit": [("ionnet.fitting", "fit_cosine")],
    "fitting.decay_fit": [("ionnet.fitting", "fit_exponential_decay")],
    "cli.write": [("ionnet.cli", "write_outputs")],
}

# counter name -> functions whose calls it counts (no span: they are
# called too often, and too briefly, for a span to be worth its cost)
COUNTS = {
    "montecarlo.rng_stream": [("ionnet.montecarlo", "rng_stream")],
    "gates.ms_gate": [("ionnet.gates", "ms_gate")],
    "states.kernel": [
        ("ionnet.states", "apply_unitary"),
        ("ionnet.states", "dephase_pair"),
        ("ionnet.states", "depolarize"),
        ("ionnet.states", "partial_trace"),
    ],
}


class Tracer:
    def __init__(self):
        self.names = []
        self.start = []
        self.end = []
        self.parent = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack = []

    def span(self, name, fn):
        names, start, end, parent, stack = self.names, self.start, self.end, self.parent, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            # A layer entry point that delegates to another one of the same
            # layer (load_scenario -> loads_scenario) stays one span.
            if stack and names[stack[-1]] == name:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def export(self):
        return {
            "names": self.names,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "counts": self.counts,
        }


def _rebind(original, wrapper):
    """Point every ionnet module attribute bound to ``original`` at ``wrapper``."""
    found = 0
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "ionnet" and not mod_name.startswith("ionnet."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                found += 1
    return found


def install():
    """Wrap every layer entry point; the ionnet modules must be imported."""
    tracer = Tracer()
    for table, make in ((SPANS, tracer.span), (COUNTS, tracer.count)):
        for name, targets in table.items():
            for mod_name, fn_name in targets:
                original = getattr(sys.modules[mod_name], fn_name)
                if not _rebind(original, make(name, original)):
                    raise RuntimeError(f"{mod_name}.{fn_name} is not bound anywhere")
    return tracer


def self_times(trace):
    """Per span name: (number of spans, total self time in seconds).

    Self time is a span's duration minus the durations of its direct
    children; calls are synchronous, so children nest inside parents.
    """
    names, start, end, parent = trace["names"], trace["start"], trace["end"], trace["parent"]
    self_s = [e - s for s, e in zip(start, end)]
    for idx, par in enumerate(parent):
        if par >= 0:
            self_s[par] -= end[idx] - start[idx]
    out = {}
    for name, value in zip(names, self_s):
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + value)
    return out


def inclusive_times(trace, name):
    """Total duration of the spans called ``name``."""
    return sum(
        e - s for n, s, e in zip(trace["names"], trace["start"], trace["end"]) if n == name
    )
