"""The traced benchmark's patch targets: ``perfbench/spans.py`` wraps package
functions, methods and measure masses by name, so a rename there would only
show in a traced benchmark run.  Here its ``instrument`` runs against the
package, every target must be wrapped, and ``restore`` must put back every
attribute it touched."""

import importlib
import importlib.util
from pathlib import Path

import cocycle_lab


def _spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_is_wrapped_and_restored():
    spans = _spans()
    modules = {m: importlib.import_module(f"cocycle_lab.{m}") for m in spans.LAYERS}
    targets = [(modules[m], attr) for m, attr, _ in spans.FUNCTIONS]
    targets += [(getattr(modules[m], cls), attr) for m, cls, attr, _ in spans.METHODS]
    targets += [(getattr(modules["space"], cls), "mass") for cls in spans.MEASURE_CLASSES]
    owners = [cocycle_lab, *modules.values(), *{owner for owner, _ in targets}]
    before = {owner: dict(vars(owner)) for owner in owners}

    restore = spans.instrument(cocycle_lab, spans.Recorder())
    try:
        for owner, attr in targets:
            wrapped = vars(owner)[attr]
            assert wrapped is not before[owner][attr], (owner, attr)
            assert wrapped.__wrapped__ is before[owner][attr], (owner, attr)
    finally:
        restore()

    for owner in owners:
        now = vars(owner)
        assert now.keys() == before[owner].keys(), owner
        assert all(now[k] is v for k, v in before[owner].items()), owner
