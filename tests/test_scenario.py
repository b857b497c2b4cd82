import itertools
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from ionnet.records import fields, replace
from ionnet.scenario import (
    _SECTIONS,
    _SETTING_KINDS,
    SPEED_OF_LIGHT,
    AnalysisStep,
    DetectorModel,
    GateSettings,
    HeraldStep,
    LinkBudget,
    LinkErrorModel,
    MeasureStep,
    MemoryDecoherence,
    MSGateStep,
    PhaseLedger,
    ProtocolLayout,
    ProtocolScript,
    ReinitStep,
    RunSettings,
    Scenario,
    ScenarioError,
    WaitStep,
    budget_report,
    coherent_entanglement_distance,
    emit_scenario,
    expected_rate,
    load_scenario,
    loads_scenario,
    timing_report,
)

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).parent / "data"
FLOAT_PATHS = [
    f"{section}.{key}"
    for section, (_, cls) in _SECTIONS.items()
    for key, kind in cls.kinds.items()
    if _SETTING_KINDS[kind][0] is float
]


# Each step rule: the [protocol] text that breaks it, the same steps as
# records, and the step.N line that the message names.
STEP_RULES = {
    "measure-last": ("step.1 = herald\nstep.2 = wait 0.5", (HeraldStep(), WaitStep(0.5)),
                     "protocol.step.2 = wait 0.5"),
    "one-measure": ("step.1 = measure\nstep.2 = measure", (MeasureStep(), MeasureStep()),
                    "protocol.step.1 = measure"),
    "declared-qubits": ("step.1 = reinit q9\nstep.2 = measure", (ReinitStep("q9"), MeasureStep()),
                        "protocol.step.1 = reinit q9"),
    "gate-two-qubits": ("step.1 = gate q2 q2\nstep.2 = measure",
                        (MSGateStep(("q2", "q2")), MeasureStep()), "protocol.step.1 = gate q2 q2"),
    "gate-one-module": ("step.1 = herald\nstep.2 = gate q2 q3\nstep.3 = measure",
                        (HeraldStep(), MSGateStep(("q2", "q3")), MeasureStep()),
                        "protocol.step.2 = gate q2 q3"),
    "analyze-distinct": ("step.1 = analyze q1 q2 q1\nstep.2 = measure",
                         (AnalysisStep(("q1", "q2", "q1"), math.pi / 2.0, 0.0), MeasureStep()),
                         "protocol.step.1 = analyze q1 q2 q1"),
    "wait-nonnegative": ("step.1 = herald\nstep.2 = wait -2e-3\nstep.3 = measure",
                         (HeraldStep(), WaitStep(-2e-3), MeasureStep()),
                         "protocol.step.2 = wait -0.002"),
    "wait-finite": ("step.1 = wait inf\nstep.2 = measure", (WaitStep(math.inf), MeasureStep()),
                    "protocol.step.1 = wait inf"),
}


class TestDefaults:
    def test_empty_config_gives_working_defaults(self):
        s = loads_scenario("")
        rate = expected_rate(s.budget)
        assert abs(rate - 4.5) / 4.5 < 0.05
        assert s.memory.tau_s == 1.12
        assert (s.detectors.module_a, s.detectors.module_b) == ("shared", "individual")
        assert len(s.defaulted) >= 30
        assert "link_budget.rep_rate" in s.defaulted
        assert not s.ledger.warnings()

    def test_defaulted_fields_shrink_on_override(self):
        s = loads_scenario("[memory]\ntau_s = 2.24\n")
        assert "memory.tau_s" not in s.defaulted
        assert s.memory.tau_s == 2.24

    def test_tau_override_scales_d_ent(self):
        base = budget_report(loads_scenario("")).summary["d_ent_m"]
        doubled = budget_report(loads_scenario("[memory]\ntau_s = 2.24\n")).summary["d_ent_m"]
        assert doubled == pytest.approx(2 * base, rel=1e-12)



class TestTimeline:
    def test_step_duration_is_each_kinds_configured_time(self):
        s = loads_scenario("[protocol]\nreinit_duration_s = 3e-4\n[gate]\ndetuning_hz = 4e4\n")
        assert s.step_duration(ReinitStep("q1")) == 3e-4
        # A gate takes 2 / detuning_hz, the gate_time_s that timing reports.
        gate_time = timing_report(s).summary["gate_time_s"]
        assert s.step_duration(MSGateStep(("q1", "q2"))) == 2.0 / 4e4 == gate_time
        assert s.step_duration(WaitStep(0.25)) == 0.25
        for step in (HeraldStep(), AnalysisStep(("q1",), 1.0, 0.0), MeasureStep()):
            assert s.step_duration(step) == 0.0

    def test_timing_reports_each_step_and_the_time_after_the_last_herald(self):
        steps = ["wait 2", "herald", "reinit q1", "herald", "wait 0.5", "gate q1 q2", "measure"]
        text = "[protocol]\nreinit_duration_s = 0.001\n" + "".join(
            f"step.{n} = {step}\n" for n, step in enumerate(steps, start=1)
        )
        summary = timing_report(loads_scenario(text)).summary
        schedule = ["detuning_hz", "gate_time_s", "phase_flip_time_s", "sideband_rabi_hz"]
        assert list(summary)[:4] == schedule
        assert {k: v for k, v in summary.items() if k not in schedule} == {
            "step_1_wait_s": 2.0,
            "step_2_herald_s": 0.0,
            "step_3_reinit_s": 0.001,
            "step_4_herald_s": 0.0,
            "step_5_wait_s": 0.5,
            "step_6_gate_s": 1e-4,
            "step_7_measure_s": 0.0,
            "script_time_s": 0.5 + 1e-4,
        }

    def test_script_without_a_herald_times_every_step(self):
        text = (
            "[protocol]\nreinit_duration_s = 0.001\n"
            "step.1 = reinit q1\nstep.2 = wait 0.5\nstep.3 = measure\n"
        )
        summary = timing_report(loads_scenario(text)).summary
        assert summary["script_time_s"] == 0.001 + 0.5


class TestValidation:
    def test_negative_rep_rate_rejected_with_field_path(self):
        with pytest.raises(ScenarioError, match=r"link_budget\.rep_rate"):
            loads_scenario("[link_budget]\nrep_rate = -1\n")

    def test_unknown_section(self):
        with pytest.raises(ScenarioError, match="unknown section"):
            loads_scenario("[nonsense]\nx = 1\n")

    def test_unknown_key_with_line_number(self):
        with pytest.raises(ScenarioError, match=r":3: unknown key gate\.blah"):
            loads_scenario("\n[gate]\nblah = 2\n")

    def test_duplicate_key(self):
        with pytest.raises(ScenarioError, match="duplicate key"):
            loads_scenario("[memory]\ntau_s = 1\ntau_s = 2\n")

    def test_malformed_line(self):
        with pytest.raises(ScenarioError, match="expected 'key = value'"):
            loads_scenario("[memory]\ntau_s 1.0\n")

    def test_assignment_before_section(self):
        with pytest.raises(ScenarioError, match="before any"):
            loads_scenario("tau_s = 1.0\n")

    def test_bad_number(self):
        with pytest.raises(ScenarioError, match="cannot parse"):
            loads_scenario("[memory]\ntau_s = fast\n")

    def test_bad_step_verb(self):
        with pytest.raises(ScenarioError, match="unknown step verb"):
            loads_scenario("[protocol]\nstep.1 = teleport q1\n")

    def test_bad_wait_duration_names_its_line(self):
        with pytest.raises(ScenarioError, match=r"<string>:3: cannot parse protocol\.step\.2"):
            loads_scenario("[protocol]\nstep.1 = herald\nstep.2 = wait abc\nstep.3 = measure\n")

    def test_script_missing_measure(self):
        with pytest.raises(ScenarioError, match="measure"):
            loads_scenario("[protocol]\nstep.1 = herald\n")

    def test_script_unknown_qubit(self):
        text = "[protocol]\nstep.1 = gate q1 q9\nstep.2 = measure\n"
        with pytest.raises(ScenarioError):
            loads_scenario(text)

    @pytest.mark.parametrize(
        "text, match",
        [
            # the phonon bus only exists within a module
            ("step.1 = herald\nstep.2 = gate q2 q3\nstep.3 = measure",
             r"^protocol\.step\.2 = gate q2 q3 does not act on two qubits of one module"),
            ("step.1 = gate q1 q1\nstep.2 = measure",
             r"^protocol\.step\.1 = gate q1 q1 does not act on two qubits of one module"),
            ("step.1 = analyze q1 q1\nstep.2 = measure", "names a qubit twice"),
            ("link = q1 q2\nstep.1 = measure", "must join qubits of two modules"),
            ("link = q1 q9\nstep.1 = measure", "must join qubits of two modules"),
            # the herald takes the first atom as the module-A emitter
            ("link = q3 q2", "qubits_a first"),
            # re-initializing a heralded atom discards the remote pair
            ("link = q1 q3", "reinit q1 follows a herald"),
            ("step.1 = herald\nstep.2 = reinit q3\nstep.3 = measure", "discards the pair"),
            ("step.1 = reinit\nstep.2 = measure", r":2: wrong number of arguments"),
            ("step.1 = herald ab\nstep.2 = measure", r":2: wrong number of arguments"),
            ("step.1 = gate q1\nstep.2 = measure", r":2: wrong number of arguments"),
            ("step.1 = analyze\nstep.2 = measure", r":2: wrong number of arguments"),
            ("step.1 = wait\nstep.2 = measure", r":2: wrong number of arguments"),
            ("step.1 = measure now", r":2: wrong number of arguments"),
        ],
    )
    def test_script_rules(self, text, match):
        with pytest.raises(ScenarioError, match=match):
            loads_scenario(f"[protocol]\n{text}\n")

    @pytest.mark.parametrize(
        "steps, reason",
        [
            ((("gate", "q1"), ("measure",)), "protocol.step.1 = ('gate', 'q1') is not a step record"),
            ((("herald", "x", "y"), ("measure",)), "protocol.step.1 = ('herald', 'x', 'y') is not"),
            ((HeraldStep(), MSGateStep(("q1", "q3")), MeasureStep()),
             "protocol.step.2 = gate q1 q3 does not act on two qubits of one module"),
            ((HeraldStep(), AnalysisStep(("q9",), math.pi / 2.0, 0.0), MeasureStep()),
             "protocol.step.2 = analyze q9 names q9,"),
            ((HeraldStep(),), "protocol.step.1 = herald is last; one measure ends the steps"),
            ((), "protocol.step.1 is missing; one measure ends the steps"),
        ],
    )
    def test_built_scenario_checks_its_script(self, steps, reason):
        # A protocol built in Python is checked as a loaded one is.
        s = loads_scenario("")
        with pytest.raises(ScenarioError, match=rf"^{re.escape(reason)}"):
            replace(s, protocol=replace(s.protocol, steps=steps))

    @pytest.mark.parametrize("text, steps, line", STEP_RULES.values(), ids=STEP_RULES)
    def test_each_step_rule_names_its_line_alike_loaded_or_built(self, text, steps, line):
        # The message names the step.N line as emit_scenario writes it,
        # and a loaded protocol fails with the message of the built one.
        with pytest.raises(ScenarioError) as loaded:
            loads_scenario(f"[protocol]\n{text}\n")
        with pytest.raises(ScenarioError) as built:
            ProtocolLayout(steps=steps)
        assert str(loaded.value) == str(built.value)
        assert str(built.value).startswith(f"{line} ")

    @pytest.mark.parametrize("section", _SECTIONS)
    def test_built_scenario_checks_each_section_record_class(self, section):
        # A section given a record of another section's class is rejected
        # when the scenario is built, naming the section and both classes.
        s = loads_scenario("")
        attr, cls = _SECTIONS[section]
        sections = list(_SECTIONS.values())
        other = sections[(sections.index((attr, cls)) + 1) % len(sections)][1]
        reason = f"[{section}] is a {other.__name__} record, not {cls.__name__}"
        with pytest.raises(ScenarioError, match=re.escape(reason)):
            replace(s, **{attr: other()})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("path", FLOAT_PATHS)
    def test_built_scenario_rejects_non_finite_settings(self, path, value):
        # A float setting built in Python is checked as a loaded one is:
        # only memory.tau_s = inf (no memory dephasing) is accepted.
        section, key = path.split(".")
        attr = _SECTIONS[section][0]
        s = loads_scenario("")

        def build():
            return replace(s, **{attr: replace(getattr(s, attr), **{key: value})})

        if (path, value) == ("memory.tau_s", math.inf):
            assert build().memory.tau_s == math.inf
        else:
            with pytest.raises(ScenarioError, match=re.escape(path)):
                build()

    @pytest.mark.parametrize(
        "path",
        [f"{section}.{key}" for section, (_, cls) in _SECTIONS.items() for key in cls.kinds],
    )
    def test_built_record_checks_each_setting_by_its_kind(self, path):
        # A section record made on its own or replaced into a scenario
        # rejects a value of a wrong type or outside its kind's range,
        # naming the setting.
        section, key = path.split(".")
        attr, cls = _SECTIONS[section]
        kind = cls.kinds[key]
        s = loads_scenario("")
        bad = OUT_OF_KIND[kind] + WRONG_TYPE[_SETTING_KINDS[kind][0]]
        for value in bad:
            with pytest.raises(ScenarioError, match=rf"^{re.escape(path)} = "):
                cls(**{key: value})
            with pytest.raises(ScenarioError, match=rf"^{re.escape(path)} = "):
                replace(s, **{attr: replace(getattr(s, attr), **{key: value})})
        # memory.tau_s = inf means no memory dephasing.
        if kind == "Lifetime":
            assert replace(s, memory=cls(**{key: math.inf})).memory.tau_s == math.inf

    def test_probability_out_of_range(self):
        with pytest.raises(ScenarioError, match="atom_photon_fidelity"):
            loads_scenario("[link_errors]\natom_photon_fidelity = 1.2\n")

    @pytest.mark.parametrize("key", ["n_trials", "shots_per_point"])
    def test_count_numpy_cannot_draw(self, key):
        assert getattr(loads_scenario(f"[run]\n{key} = {2**63 - 1}\n").run, key) == 2**63 - 1
        reason = rf"run\.{key} = {2**63} is not a count from 1 to 2\*\*63 - 1"
        with pytest.raises(ScenarioError, match=reason):
            loads_scenario(f"[run]\n{key} = {2**63}\n")

    def test_missing_file(self):
        with pytest.raises(ScenarioError, match="not found"):
            load_scenario("/nonexistent/path.cfg")

    def test_geometry_warning_not_error(self):
        s = loads_scenario("[phase_ledger]\ndelta_tau = 1e-8\n")
        assert any("delta_tau" in w for w in s.ledger.warnings())

    @pytest.mark.parametrize(
        "text",
        [
            "k = 1e300\ndelta_x = 1e300\n",  # inf
            "k = 1e300\ndelta_tau = 1e10\n",  # k*c*delta_tau is inf
            "k = 1e300\ndelta_tau = 1e10\ndelta_x = -1e300\n",  # inf - inf
            "k = 1\ndelta_x = 1.7e308\ndelta_phi_t = 1.7e308\n",  # a finite sum's overflow
        ],
    )
    def test_overflowing_herald_phase_rejected_by_name(self, text):
        with pytest.raises(ScenarioError, match="the herald phase .* overflows") as exc:
            loads_scenario("[phase_ledger]\n" + text)
        for key in ("phase_ledger.k = ", "delta_tau = ", "delta_x = ", "delta_phi_t = "):
            assert key in str(exc.value)

    def test_large_finite_herald_phase_is_kept(self):
        s = loads_scenario("[phase_ledger]\nk = 1e290\ndelta_x = 1e15\n")
        assert s.ledger.herald_phase(math.pi) == pytest.approx(1e305)

    @pytest.mark.parametrize("text, excitation", [
        ("k = 1e300\ndelta_x = 1e5\n", 1e300 * (SPEED_OF_LIGHT * 1e-10)),
        ("k = 1e300\ndelta_tau = 0.0\ndelta_x = 1e5\n", 0.0),  # not inf * 0
    ])
    def test_excitation_term_is_kept_where_k_times_c_overflows(self, text, excitation):
        ledger = loads_scenario("[phase_ledger]\n" + text).ledger
        assert ledger.excitation_phase == excitation
        assert ledger.herald_phase(0.0) == pytest.approx(1e305)
        assert not any("inf" in w or "nan" in w for w in ledger.warnings())

    def test_excitation_term_is_k_times_c_times_delta_tau_in_that_order(self):
        # The other order rounds the default term differently.
        ledger = PhaseLedger()
        assert ledger.excitation_phase == ledger.k * SPEED_OF_LIGHT * ledger.delta_tau
        assert ledger.excitation_phase != ledger.k * (SPEED_OF_LIGHT * ledger.delta_tau)


class TestEntanglementDistance:
    def test_budget_reports_separation_times_rate_times_tau(self):
        s = loads_scenario("[run]\nqubit_separation_m = 3.0\n")
        assert budget_report(s).summary["d_ent_m"] == coherent_entanglement_distance(
            3.0, expected_rate(s.budget), s.memory.tau_s
        )

    def test_zero_rate_gives_zero(self):
        assert coherent_entanglement_distance(1.0, 0.0, 1.12) == 0.0
        assert math.isnan(coherent_entanglement_distance(1.0, 0.0, math.inf))

    def test_rejects_zero_tau(self):
        with pytest.raises(ValueError, match="tau > 0"):
            coherent_entanglement_distance(1.0, 4.5, 0.0)


class TestRoundTrip:
    def test_emit_load_emit_is_identical(self):
        s = loads_scenario("[gate]\nphi_a = 0.7853981633974483\n[run]\nseed = 99\n")
        text = emit_scenario(s)
        s2 = loads_scenario(text)
        assert emit_scenario(s2) == text
        assert s2.budget == s.budget
        assert s2.link_errors == s.link_errors
        assert s2.gate == s.gate
        assert s2.ledger == s.ledger
        assert s2.memory == s.memory
        assert s2.detectors == s.detectors
        assert s2.protocol == s.protocol
        assert s2.run == s.run
        assert s2.defaulted == ()  # emitted form is fully explicit

    def test_hash_is_stable(self):
        s = loads_scenario("")
        assert emit_scenario(s) == emit_scenario(loads_scenario(emit_scenario(s)))

    def test_wait_spellings_hash_alike(self):
        # A wait duration is kept in one canonical spelling, so two
        # spellings of one script resolve to the same config.
        base = "[protocol]\nstep.1 = herald\nstep.2 = wait {}\nstep.3 = measure\n"
        one, other = (loads_scenario(base.format(d)) for d in ("1e-3", "0.001"))
        assert one.protocol.steps[1] == WaitStep(0.001)
        assert emit_scenario(one) == emit_scenario(other)

    def test_large_integer_is_exact(self):
        s = loads_scenario(f"[run]\nseed = {2**60 + 1}\nn_trials = 1e3\n")
        assert (s.run.seed, s.run.n_trials) == (2**60 + 1, 1000)

    @pytest.mark.parametrize(
        "raw, value", [("1e30", 10**30), ("12345678901234567e3", 12345678901234567 * 1000)]
    )
    def test_exponent_form_integer_is_exact(self, raw, value):
        assert loads_scenario(f"[run]\nseed = {raw}\n").run.seed == value

    @settings(max_examples=60, deadline=None)
    @given(s=hs.deferred(lambda: scenarios()), data=hs.data())
    def test_int_given_to_a_float_setting_round_trips(self, s, data):
        # An int in a float setting is stored as its float, so the built
        # scenario emits what its reload emits.
        for section, (attr, cls) in _SECTIONS.items():
            ints = {
                key: data.draw(INT_OF_KIND[kind], label=f"{section}.{key}")
                for key, kind in cls.kinds.items()
                if kind in INT_OF_KIND and data.draw(hs.booleans())
            }
            part = getattr(s, attr)
            part = ledger_or_rejection(part, **ints) if cls is PhaseLedger else replace(part, **ints)
            assert all(type(getattr(part, key)) is float for key in ints)
            s = replace(s, **{attr: part})
        back = loads_scenario(emit_scenario(s))
        assert back == s
        assert emit_scenario(back) == emit_scenario(s)

    @settings(max_examples=60, deadline=None)
    @given(s=hs.deferred(lambda: scenarios()))
    def test_random_scenario_round_trips(self, s):
        text = emit_scenario(s)
        back = loads_scenario(text)
        assert back == s
        assert emit_scenario(back) == text


# Values of each setting kind's type that it rejects.
OUT_OF_KIND = {
    "Real": [math.nan, math.inf, -math.inf],
    "Probability": [-0.1, 1.5, 2, math.nan, math.inf],
    "Positive": [0.0, -1.0, 0, math.nan, math.inf],
    "NonNegative": [-1e-9, -1, math.nan, math.inf],
    "Lifetime": [0.0, -2.0, 0, math.nan, -math.inf],
    "Count": [0, -1, 2**63],
    "Seed": [-1],
    "Topology": ["both", "Shared", ""],
    "Words": [(), ("q1 q2",), ("",), (1,)],
}
# Values of a wrong type, per config type.
WRONG_TYPE = {
    float: ["0.5", True, None, 1j, (0.5,)],
    int: [1.5, 1.0, "3", True, None],
    str: [1, None, ("shared",), b"shared"],
    tuple: ["q1 q2", ["q1"], None],
}
# Ints that each float kind accepts.
INT_OF_KIND = {
    "Real": hs.integers(-(10**6), 10**6),
    "Probability": hs.integers(0, 1),
    "Positive": hs.integers(1, 10**6),
    "NonNegative": hs.integers(0, 10**6),
    "Lifetime": hs.integers(1, 10**6),
}

UNIT = hs.floats(0.0, 1.0)
FINITE = hs.floats(allow_nan=False, allow_infinity=False)
# Bounded away from 0 and overflow, so that derived timings stay finite.
POSITIVE = hs.floats(1e-300, 1e300)
LABEL = hs.text("abcdefghijklmnopqrstuvwxyz0123456789_", min_size=1, max_size=4)


@hs.composite
def protocols(draw):
    """A valid module layout, link and step list."""
    labels = draw(hs.lists(LABEL, min_size=2, max_size=6, unique=True))
    cut = draw(hs.integers(1, len(labels) - 1))
    qa, qb = tuple(labels[:cut]), tuple(labels[cut:])
    gates = [(x, y) for module in (qa, qb) for x in module for y in module if x != y]
    link = (draw(hs.sampled_from(qa)), draw(hs.sampled_from(qb)))
    # a reinit of a link atom may not follow a herald
    spare = [q for q in labels if q not in link]
    step = hs.one_of(
        hs.just(HeraldStep()),
        *([hs.builds(ReinitStep, hs.sampled_from(spare))] if spare else []),
        hs.lists(hs.sampled_from(labels), min_size=1, unique=True).map(
            lambda q: AnalysisStep(tuple(q), math.pi / 2.0, 0.0)
        ),
        hs.builds(WaitStep, hs.floats(0.0, 1e3)),
        *([hs.builds(MSGateStep, hs.sampled_from(gates))] if gates else []),
    )
    return ProtocolLayout(
        qubits_a=qa,
        qubits_b=qb,
        link=link,
        crosstalk_depol=draw(UNIT),
        reinit_duration_s=draw(hs.floats(0.0, 1e3)),
        steps=(*draw(hs.lists(step, max_size=6)), MeasureStep()),
    )


def ledger_or_rejection(ledger: PhaseLedger, **values) -> PhaseLedger:
    """``replace(ledger, **values)``; when its herald phase overflows,
    check that the rejection names the four static terms and give
    ``ledger`` back unchanged."""
    new = {**{key: getattr(ledger, key) for key in PhaseLedger.kinds}, **values}
    # The excitation term is (k*c)*delta_tau, or k*(c*delta_tau) where that overflows.
    excitation = new["k"] * SPEED_OF_LIGHT * new["delta_tau"]
    if not math.isfinite(excitation):
        excitation = new["k"] * (SPEED_OF_LIGHT * new["delta_tau"])
    static = excitation + new["k"] * new["delta_x"]
    if all(math.isfinite(phi_d + static + new["delta_phi_t"]) for phi_d in (0.0, math.pi)):
        return replace(ledger, **values)
    with pytest.raises(ScenarioError, match="the herald phase .* overflows") as exc:
        replace(ledger, **values)
    for key in ("k", "delta_tau", "delta_x", "delta_phi_t"):
        assert f"{key} = {float(new[key])!r}" in str(exc.value)
    return ledger


@hs.composite
def scenarios(draw):
    """A random valid scenario, as the config dataclasses build it."""
    unit_fields = ("p_bell", "p_pi", "p_s_half", "q_e", "t_fib", "t_opt", "solid_angle_fraction")
    counts = hs.integers(1, 10**9)
    return Scenario(
        budget=LinkBudget(**{f: draw(UNIT) for f in unit_fields}, rep_rate=draw(POSITIVE)),
        link_errors=LinkErrorModel(draw(UNIT), draw(UNIT)),
        gate=GateSettings(draw(FINITE), draw(UNIT), draw(POSITIVE)),
        # A drawn ledger whose herald phase overflows is rejected by name,
        # and the scenario keeps the default ledger.
        ledger=ledger_or_rejection(
            PhaseLedger(), **{key: draw(FINITE) for key in PhaseLedger.kinds}
        ),
        memory=MemoryDecoherence(draw(hs.one_of(POSITIVE, hs.just(math.inf)))),
        detectors=DetectorModel(
            draw(UNIT),
            draw(UNIT),
            draw(hs.sampled_from(["shared", "individual"])),
            draw(hs.sampled_from(["shared", "individual"])),
        ),
        protocol=draw(protocols()),
        run=RunSettings(
            n_trials=draw(counts),
            seed=draw(hs.integers(0, 2**70)),
            shots_per_point=draw(counts),
            phi_points=draw(counts),
            delay_points=draw(counts),
            delay_max_s=draw(POSITIVE),
            phase_scan_points=draw(counts),
            phase_scan_delay_s=draw(POSITIVE),
            qubit_separation_m=draw(POSITIVE),
        ),
    )


class TestConformanceFile:
    def test_parses_and_builds_script(self):
        s = load_scenario(DATA / "conformance.cfg")
        assert s.defaulted == ()
        script = s.script()
        # steps execute in index order regardless of textual order
        assert isinstance(script.steps[0], HeraldStep)
        assert isinstance(script.steps[3], AnalysisStep)
        assert script.steps[3].phi == 0.0
        assert isinstance(script.steps[4], WaitStep)
        assert script.steps[4].duration_s == 0.001
        assert isinstance(script.steps[-1], MeasureStep)

    def test_matches_builtin_defaults_except_steps(self):
        s = load_scenario(DATA / "conformance.cfg")
        d = loads_scenario("")
        assert s.budget == d.budget
        assert s.ledger == d.ledger
        assert s.run == d.run


class TestScriptRestriction:
    @pytest.mark.parametrize("config", ["default.cfg", "calibrated_3q.cfg"])
    def test_link_register_gives_the_pair_script(self, config):
        s = load_scenario(ROOT / "configs" / config)
        assert s.script(s.protocol.link) == ProtocolScript(
            qubits=("q2", "q3"),
            modules={"A": ("q2",), "B": ("q3",)},
            link=("q2", "q3"),
            steps=(HeraldStep(), MeasureStep()),
        )

    def test_gate_register_drops_the_link_and_keeps_its_steps(self):
        script = loads_scenario("").script(("q1", "q2"))
        assert script.link is None
        assert script.modules == {"A": ("q1", "q2")}
        assert [type(step) for step in script.steps] == [
            ReinitStep, MSGateStep, AnalysisStep, MeasureStep,
        ]

    @pytest.mark.parametrize("register, undeclared", [
        (("q9", "q2"), "q9"), (("q1", "q4", "q3", "q9"), "q4 q9"),
    ])
    def test_register_naming_an_undeclared_qubit_rejected(self, register, undeclared):
        with pytest.raises(ValueError, match=f"names {undeclared}, which qubits_a and qubits_b"):
            loads_scenario("").script(register)

    @pytest.mark.parametrize(
        "register", [r for n in range(4) for r in itertools.permutations(("q1", "q2", "q3"), n)]
    )
    def test_wait_step_survives_every_restriction(self, register):
        s = loads_scenario("[protocol]\nstep.1 = herald\nstep.2 = wait 0.5\nstep.3 = measure\n")
        script = s.script(register)
        assert script.qubits == register
        assert WaitStep(0.5) in script.steps


class TestShippedConfigs:
    def test_default_config_round_trips(self):
        path = ROOT / "configs" / "default.cfg"
        s = load_scenario(path)
        assert s.defaulted == ()
        assert s.protocol.crosstalk_depol == 0.0
        assert path.read_text(encoding="utf-8") == emit_scenario(loads_scenario(""))

    def test_calibrated_3q_config(self):
        s = load_scenario(ROOT / "configs" / "calibrated_3q.cfg")
        assert s.protocol.crosstalk_depol == pytest.approx(0.13)


def _doc_table_rows() -> list[tuple[str, str, str, str]]:
    """(section, key, kind, default) rows of the field table in
    docs/config-format.md; a blank section cell repeats the one above."""
    rows, section = [], None
    for line in (ROOT / "docs" / "config-format.md").read_text(encoding="utf-8").splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 5 or not re.fullmatch(r"`[^`]+`", cells[1]):
            continue
        section = cells[0].strip("`") or section
        rows.append((section, cells[1].strip("`"), cells[2], cells[3].strip("`")))
    return rows


def test_docs_field_table_matches_schema():
    rows = [row for row in _doc_table_rows() if row[1] != "step.N"]
    documented = [(section, key, kind) for section, key, kind, _ in rows]
    assert documented == [
        (section, key, kind)
        for section, (_, cls) in _SECTIONS.items()
        for key, kind in cls.kinds.items()
    ]
    emitted, section = {}, None
    for line in emit_scenario(loads_scenario("")).splitlines():
        if line.startswith("["):
            section = line.strip("[]")
        elif " = " in line:
            key, value = line.split(" = ", 1)
            emitted[section, key] = value
    for section, key, _, default in rows:
        value = emitted[section, key]
        if default.endswith("..."):
            assert value.startswith(default[:-3]), (section, key)
        else:
            assert value == default, (section, key)


def test_schema_sections_are_the_record_fields():
    # Each section's keys and their order are its record class's fields
    # of a setting kind; the protocol steps are written as step.N keys.
    classes = {
        "link_budget": LinkBudget,
        "link_errors": LinkErrorModel,
        "gate": GateSettings,
        "phase_ledger": PhaseLedger,
        "memory": MemoryDecoherence,
        "detectors": DetectorModel,
        "protocol": ProtocolLayout,
        "run": RunSettings,
    }
    assert [(section, cls) for section, (_, cls) in _SECTIONS.items()] == list(classes.items())
    for section, cls in classes.items():
        assert cls.section == section
        assert list(cls.kinds) == [name for name in fields(cls) if name != "steps"], section
    assert "steps" in fields(ProtocolLayout)
