"""Every public name of the package has exactly one home module."""

import importlib
import inspect
import pkgutil

import ionnet


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
    # The package's own names are its one re-export table, each mapped to
    # the module that lists it.
    for name, home in ionnet._HOME.items():
        assert homes[name] == [f"ionnet.{home}"], name
