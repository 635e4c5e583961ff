"""The benchmark's span tracer finds the library's functions by name
(bench/layertrace.py). A renamed or unexported function would silently
read as zero work there, so every name it hooks must resolve and be one
that the tracer wraps."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parents[1] / "bench" / "layertrace.py"


def _layertrace():
    spec = importlib.util.spec_from_file_location("_bench_layertrace",
                                                  LAYERTRACE)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


lt = _layertrace()


def hooked_names():
    """The counter hooks' keys, then the private names in EXTRA."""
    names = list(lt.Tracer()._hooks(None))
    names += [f"{layer}.{name}" for layer, extra in lt.EXTRA.items()
              for name in extra]
    return list(dict.fromkeys(names))


def test_the_tracer_hooks_the_residual_and_csv_boundaries():
    names = hooked_names()
    for name in ("apath.homotopy_residual", "apath.AHomotopy.write_csv",
                 "apath.APath.write_csv", "poisson._flow_field_probe"):
        assert name in names


@pytest.mark.parametrize("name", hooked_names())
def test_hooked_name_resolves_to_a_wrapped_attribute(name):
    layer, *path = name.split(".")
    assert layer in lt.LAYERS
    mod = importlib.import_module(f"algpaths.{layer}")
    wrapped = lt._public_names(mod) + list(lt.EXTRA.get(layer, ()))
    assert path[0] in wrapped, f"{name}: the tracer does not wrap {path[0]}"
    obj = mod
    for attr in path:
        assert attr in vars(obj), f"{name}: no attribute {attr}"
        obj = getattr(obj, attr)
    assert callable(obj)
    if len(path) == 2:
        # a method: the tracer wraps the class's own public functions
        assert inspect.isclass(getattr(mod, path[0]))
        assert not path[1].startswith("_")
