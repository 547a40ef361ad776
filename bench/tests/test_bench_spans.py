"""Span recording, self-time arithmetic and wrapper restoration."""

import types

import pytest
from spans import Tracer, package_targets

SOURCE = """
def inner(x):
    return x + 1

def outer(x):
    return inner(x) * 2

def boom():
    raise ValueError("boom")
"""


def make_module(name="fake_layer"):
    mod = types.ModuleType(name)
    exec(SOURCE, mod.__dict__)
    return mod


def test_self_time_subtracts_child_spans():
    ticks = iter([0.0, 2.0, 5.0, 10.0])  # outer start, inner start, inner end, outer end
    tracer = Tracer(clock=lambda: next(ticks))
    mod = make_module()
    tracer.install({mod.outer: "fake.outer", mod.inner: "fake.inner"}, [mod])
    assert mod.outer(1) == 4
    tracer.restore()
    assert list(tracer.parents) == [-1, 0]
    assert tracer.self_times() == {"fake.outer": (7.0, 1), "fake.inner": (3.0, 1)}


def test_self_time_sums_repeated_children():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 7.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    mod = make_module()
    exec("def twice(x):\n    return inner(x) + inner(x)\n", mod.__dict__)
    tracer.install({mod.twice: "fake.twice", mod.inner: "fake.inner"}, [mod])
    assert mod.twice(0) == 2
    # twice spans 0..10; its children cover 1..2 and 4..7.
    assert tracer.self_times() == {"fake.twice": (6.0, 1), "fake.inner": (4.0, 2)}


def test_wrappers_replace_every_namespace_and_restore():
    mod, importer = make_module(), make_module("importer")
    original = mod.outer
    importer.outer = original  # as after `from fake_layer import outer`
    tracer = Tracer()
    replaced = tracer.install({original: "fake.outer"}, [mod, importer])
    assert replaced == 2
    assert mod.outer is importer.outer is not original
    importer.outer(1)
    assert tracer.span_count == 1
    tracer.restore()
    assert mod.outer is original and importer.outer is original


def test_raising_call_closes_its_span_and_reaches_the_counter():
    seen = []
    tracer = Tracer()
    mod = make_module()
    counters = {"fake.boom": lambda c, args, kwargs, result, exc: seen.append(type(exc))}
    tracer.install({mod.boom: "fake.boom"}, [mod], counters)
    with pytest.raises(ValueError):
        mod.boom()
    tracer.restore()
    assert seen == [ValueError]
    assert tracer.ends[0] >= tracer.starts[0] > 0.0
    assert not tracer._stack


def test_package_targets_wrap_imported_names_and_class_methods():
    import directwf.cli
    import directwf.metrics
    import directwf.protocol

    layers = ("cli", "states", "protocol", "reconstruction", "sampling", "metrics", "serialize")
    originals = (
        directwf.cli.sampled_reconstruction,
        directwf.protocol.CouplingStrength.__dict__["coerce"],
        directwf.protocol.CouplingStrength.__dict__["sin"],
    )
    targets, namespaces = package_targets("directwf", layers)
    assert targets[originals[0]] == "metrics.sampled_reconstruction"
    tracer = Tracer()
    tracer.install(targets, namespaces)
    try:
        assert directwf.cli.sampled_reconstruction is directwf.metrics.sampled_reconstruction
        assert directwf.cli.sampled_reconstruction is not originals[0]
        assert directwf.protocol.CouplingStrength.coerce(0.5).theta == 0.5
        assert tracer.self_times()["protocol.CouplingStrength.coerce"][1] == 1
        assert directwf.protocol.CouplingStrength.__dict__["sin"] is originals[2]
    finally:
        tracer.restore()
    assert directwf.cli.sampled_reconstruction is originals[0]
    assert directwf.metrics.sampled_reconstruction is originals[0]
    assert directwf.protocol.CouplingStrength.__dict__["coerce"] is originals[1]
