"""The benchmark's entry points resolve against the package.

``perfbench/layers.py`` names fdalg functions when it is imported (its
``COUNTED`` call counters), and ``perfbench/workloads.py`` imports the
analyses each workload times, so a rename in ``src/fdalg`` breaks
``perfbench/run.py --trace 1``.  Both files are imported here and left as
they are.
"""
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_counted_entry_points_resolve():
    layers = _load("layers")
    for name, fns in layers.COUNTED.items():
        assert fns, name
        for fn in fns:
            # the profiler's key of a Python function, charged to the named layer
            assert layers._layer_of(layers._key(fn)) == name.split(".")[0], (name, fn)


def test_every_benchmark_workload_is_defined():
    workloads = _load("workloads")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert set(workloads.WORKLOADS) == {w["name"] for w in declared}
    for w in workloads.WORKLOADS.values():
        assert all(map(callable, (w.items, w.op, w.capture))), w.name
