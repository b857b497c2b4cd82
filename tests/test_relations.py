"""Three exact relations of the model, checked on random scripts.

Each relation compares two runs of the exact engine that the model says
give the same density matrices, so no oracle is needed (metamorphic
testing):

* no signalling: a step whose qubits all lie in one module leaves the
  other module's reduced state as a ``wait`` of the step's duration
  does (a herald acts on both modules and is the one exception);
* reinit time is wait time: a ``reinit`` with ``reinit_duration_s = d``
  equals a ``reinit`` with 0 followed by ``wait d``;
* gate time is wait time: halving ``gate.detuning_hz`` doubles the gate
  time, which equals the original gate followed by a ``wait`` of the
  original gate time.

The scripts come from ``test_scenario.protocols()``: layouts of 2 to 6
atoms, with atoms outside the link in either module, crosstalk and a
reinit duration. Three named cases show each relation where a step's
duration or crosstalk is visible. Two runs agree to ``ATOL`` in every
density-matrix entry.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as hs
from test_scenario import protocols

from ionnet import states as st
from ionnet.montecarlo import exact_branches, propagate
from ionnet.records import replace
from ionnet.scenario import (
    AnalysisStep,
    GateSettings,
    HeraldStep,
    MeasureStep,
    MSGateStep,
    ProtocolLayout,
    ReinitStep,
    WaitStep,
    _named,
    loads_scenario,
)

# Both runs of a relation round differently: their largest entry-wise
# difference was 2.4e-16 in 300 drawn examples of each relation.
ATOL = 4e-15

DEFAULTS = loads_scenario("")


def scenario_of(layout: ProtocolLayout, **gate):
    return replace(DEFAULTS, protocol=layout, gate=GateSettings(**gate))


def assert_same_branches(left, right, keep=None):
    """The two branch lists agree in phase and weight, and in the
    reduced state over ``keep`` (default: the whole register)."""
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert (a.phi_d, a.weight) == (b.phi_d, b.weight)
        sa, sb = (a.state, b.state) if keep is None else (
            st.partial_trace(a.state, keep), st.partial_trace(b.state, keep)
        )
        assert sa.labels == sb.labels
        np.testing.assert_allclose(sa.data, sb.data, rtol=0, atol=ATOL)


def with_waits_after(steps, kind, duration):
    """``steps`` with ``wait duration`` after each step of type ``kind``."""
    out = []
    for step in steps:
        out.append(step)
        if isinstance(step, kind):
            out.append(WaitStep(duration))
    return tuple(out)


def check_no_signalling(scenario):
    """Each one-module step of the script against a wait of its duration."""
    script = scenario.script()
    duration = {
        ReinitStep: scenario.protocol.reinit_duration_s,
        MSGateStep: scenario.gate.gate_time_s,
        AnalysisStep: 0.0,
    }
    checked = 0
    branches = propagate(script, scenario, ())
    for step in script.steps:
        # A herald names no qubit here, and a wait or a measure none.
        modules = {script.module_of(q) for q in _named(step)}
        stepped = propagate(script, scenario, (step,), branches)
        if len(modules) == 1:
            (module,) = modules
            other = next(qs for m, qs in script.modules.items() if m != module)
            waited = propagate(script, scenario, (WaitStep(duration[type(step)]),), branches)
            assert_same_branches(stepped, waited, keep=other)
            checked += 1
        branches = stepped
    return checked


def check_reinit_time_is_wait_time(layout):
    d = layout.reinit_duration_s
    timed = scenario_of(layout)
    split = scenario_of(
        replace(layout, reinit_duration_s=0.0, steps=with_waits_after(layout.steps, ReinitStep, d))
    )
    assert_same_branches(
        exact_branches(timed.script(), timed), exact_branches(split.script(), split)
    )


def check_gate_time_is_wait_time(layout, detuning_hz):
    slow = scenario_of(layout, detuning_hz=detuning_hz / 2.0)
    fast_gate = GateSettings(detuning_hz=detuning_hz)
    fast = scenario_of(
        replace(layout, steps=with_waits_after(layout.steps, MSGateStep, fast_gate.gate_time_s)),
        detuning_hz=detuning_hz,
    )
    assert slow.gate.gate_time_s == 2.0 * fast.gate.gate_time_s
    assert_same_branches(exact_branches(slow.script(), slow), exact_branches(fast.script(), fast))


@settings(max_examples=40, deadline=None)
@given(layout=protocols())
def test_one_module_steps_do_not_signal(layout):
    check_no_signalling(scenario_of(layout))


@settings(max_examples=40, deadline=None)
@given(layout=protocols())
def test_reinit_time_is_wait_time(layout):
    check_reinit_time_is_wait_time(layout)


@settings(max_examples=40, deadline=None)
@given(layout=protocols(), detuning_hz=hs.sampled_from([2e3, 2e4, 3e5]))
def test_gate_time_is_wait_time(layout, detuning_hz):
    check_gate_time_is_wait_time(layout, detuning_hz)


# The named cases. Each needs a state on which the step's time or its
# crosstalk shows: a coherence on a module-B atom, which the beat turns,
# or a heralded pair, which dephases.

def test_reinit_does_not_signal_to_the_other_module():
    # q4's analysis pulse leaves it with a coherence of 0.5, which the
    # beat turns during the reinit's 3e-4 s; crosstalk of 0.13 hits q2,
    # q1's neighbour in module A, and no atom of module B.
    layout = ProtocolLayout(
        qubits_a=("q1", "q2"),
        qubits_b=("q3", "q4"),
        link=("q2", "q3"),
        crosstalk_depol=0.13,
        reinit_duration_s=3e-4,
        steps=(HeraldStep(), AnalysisStep(("q4",), math.pi / 2.0, 0.0), ReinitStep("q1"),
               MeasureStep()),
    )
    assert check_no_signalling(scenario_of(layout)) == 2


def test_reinit_duration_is_a_wait_on_the_calibrated_layout():
    layout = ProtocolLayout(
        reinit_duration_s=3e-4,
        steps=(HeraldStep(), ReinitStep("q1"), MSGateStep(("q1", "q2")), MeasureStep()),
    )
    check_reinit_time_is_wait_time(layout)


def test_gate_duration_is_a_wait_on_the_calibrated_layout():
    # 2e4 Hz gives a gate of 1e-4 s; at 1e4 Hz it takes 2e-4 s.
    layout = ProtocolLayout(
        steps=(HeraldStep(), ReinitStep("q1"), MSGateStep(("q1", "q2")),
               AnalysisStep(("q1", "q3"), math.pi / 2.0, 0.0), MeasureStep()),
    )
    assert GateSettings(detuning_hz=2e4).gate_time_s == 1e-4
    check_gate_time_is_wait_time(layout, 2e4)
