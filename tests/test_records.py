"""The immutable record base of every config and result class."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ionnet.cli  # noqa: F401  (defines every record class of the package)
from ionnet.records import MISSING, Record, fields, replace
from ionnet.scenario import SPEED_OF_LIGHT, ExperimentOutput, PhaseLedger, RunSettings

ROOT = Path(__file__).resolve().parents[1]


class Point(Record):
    x: float
    y: float = 0.0
    label: str = "p"


class Twin(Record):
    x: float
    y: float = 0.0
    label: str = "p"


def package_records():
    """Every record class the package defines, at any depth."""
    found, todo = [], [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("ionnet."):
                found.append(cls)
    return found


def test_fields_come_from_annotations_in_order():
    assert fields(Point) == {"x": MISSING, "y": 0.0, "label": "p"}
    assert fields(Point(1.0)) == fields(Point)
    # A class constant carries no annotation and is no field, so no config key.
    assert "c" not in fields(PhaseLedger)
    assert PhaseLedger().c == SPEED_OF_LIGHT


def test_assignment_and_deletion_raise():
    p = Point(1.0)
    with pytest.raises(AttributeError, match="cannot assign"):
        p.x = 2.0
    with pytest.raises(AttributeError, match="cannot assign"):
        p.z = 2.0
    with pytest.raises(AttributeError, match="cannot delete"):
        del p.x
    assert p == Point(1.0)


def test_equal_only_for_same_class_and_values():
    assert Point(1.0) == Point(x=1.0, y=0.0, label="p")
    assert Point(1.0) != Point(2.0)
    assert Point(1.0) != Twin(1.0)
    assert Point(1.0) != (1.0, 0.0, "p")
    assert hash(Point(1.0, 2.0)) == hash(Point(x=1.0, y=2.0))
    assert len({Point(1.0), Point(1.0), Point(2.0)}) == 2


def test_repr_has_the_dataclass_form():
    assert repr(Point(1.0, label="q")) == "Point(x=1.0, y=0.0, label='q')"
    assert repr(RunSettings()).startswith("RunSettings(n_trials=2000, seed=1, ")


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((1.0, 2.0, "a", 4), {}, "takes 3 arguments but 4 were given"),
        ((1.0,), {"z": 1}, "got an unexpected argument 'z'"),
        ((1.0,), {"x": 2.0}, "got multiple values for argument 'x'"),
        ((), {"y": 1.0}, "missing required arguments: x"),
    ],
)
def test_binding_errors_raise_type_error_naming_the_class(args, kwargs, message):
    with pytest.raises(TypeError, match=rf"^Point\(\) {re.escape(message)}$"):
        Point(*args, **kwargs)


def test_replace_validates_the_copy_and_rejects_unknown_fields():
    base = RunSettings()
    assert replace(base, seed=7) == RunSettings(seed=7)
    assert base.seed == 1
    with pytest.raises(ValueError, match=r"run\.n_trials"):
        replace(base, n_trials=0)
    with pytest.raises(TypeError, match="unexpected argument 'trials'"):
        replace(base, trials=5)


def test_defaults_are_not_shared_mutable_objects():
    immutable = (type(None), bool, int, float, str, tuple)
    for cls in package_records():
        for name, default in fields(cls).items():
            assert default is MISSING or isinstance(default, immutable), (cls, name)
    for default in ([], {}, set()):
        with pytest.raises(TypeError, match="mutable default"):
            type("Bad", (Record,), {"__annotations__": {"items": "list"}, "items": default})
    assert ExperimentOutput().tables is not ExperimentOutput().tables


def test_package_records_generate_no_code():
    assert len(package_records()) == 22
    # pytest itself loads dataclasses, so the import is checked in a
    # fresh interpreter. vars() runs each lazily registered engine module.
    code = (
        "import sys, ionnet.cli\n"
        "classes = [v for n, m in list(sys.modules.items()) if n.startswith('ionnet')\n"
        "           for v in vars(m).values() if isinstance(v, type)]\n"
        "assert 'numpy' in sys.modules and 'dataclasses' not in sys.modules\n"
        "assert classes\n"
        "assert not [c for c in classes if hasattr(c, '__dataclass_fields__')]\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
