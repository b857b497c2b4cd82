"""Every public name of the package has exactly one home module, and
the package itself re-exports none."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import ionnet

ROOT = Path(__file__).resolve().parents[1]


def listing_modules():
    """Every ionnet submodule that declares ``__all__``."""
    names = [info.name for info in pkgutil.iter_modules(ionnet.__path__)]
    modules = [importlib.import_module(f"ionnet.{name}") for name in names]
    return [m for m in modules if hasattr(m, "__all__")]


def test_each_public_name_is_listed_by_its_one_home_module():
    homes: dict[str, list[str]] = {}
    for module in listing_modules():
        here = module.__name__
        for name in module.__all__:
            homes.setdefault(name, []).append(here)
        objects = vars(module).items()
        code = {n: obj for n, obj in objects if inspect.isfunction(obj) or inspect.isclass(obj)}
        foreign = [n for n in module.__all__ if n in code and code[n].__module__ != here]
        unlisted = [n for n, obj in code.items() if obj.__module__ == here and not n.startswith("_")]
        assert foreign == [], here
        assert set(unlisted) <= set(module.__all__), here
    assert {n: m for n, m in homes.items() if len(m) > 1} == {}
    # A name is read from its home module only, never from the package.
    assert [n for n in homes if hasattr(ionnet, n)] == []


def test_readme_layout_lists_exactly_the_package_modules():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    layout = readme.split("\n## Package layout\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \|", layout, flags=re.MULTILINE)
    modules = [p.stem for p in (ROOT / "src" / "ionnet").glob("*.py") if p.stem != "__init__"]
    assert sorted(rows) == sorted(["ionnet", *(f"ionnet.{m}" for m in modules)])
