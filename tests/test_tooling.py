import importlib
import importlib.util
import os

from ccybe import exactpoly

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")

# Bindings the benchmark tracer lists that the program no longer has:
# search reaches the tensor steps through the ybe module instead.
KNOWN_MISSING = {
    ("search", "eval_equation"),
    ("search", "is_weak_solution"),
    ("search", "is_strict_solution"),
}


def test_tracer_bindings_exist():
    # a binding the tracer patches but the program dropped shows up only
    # as a "not traced" line in a traced benchmark run; catch it here
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = set()
    for owner, attr, _name, _count in tracing.PATCHES:
        if owner == "MPoly":
            found = attr in exactpoly.MPoly.__dict__
        else:
            found = hasattr(importlib.import_module(f"ccybe.{owner}"), attr)
        if not found:
            missing.add((owner, attr))
    assert missing <= KNOWN_MISSING
