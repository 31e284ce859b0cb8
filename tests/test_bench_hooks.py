"""The traced benchmark patches library functions by module attribute
(``benchmark/tracing.py``).  These tests load the tracer from the checkout and
check that every attribute it patches exists, is wrapped while the tracer is
installed and is restored when it is removed, so a library change that drops
or renames one fails here rather than in a traced benchmark run."""

import importlib.util
import time
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _hooks(tracing):
    return [(module, attr) for (module, attr, _, _) in tracing.PLAIN + tracing.GENERATORS]


def test_tracer_patches_and_restores_every_hook(tracing):
    before = {(m.__name__, attr): getattr(m, attr) for (m, attr) in _hooks(tracing)}
    with tracing.Tracer(time.process_time).install():
        for (m, attr) in _hooks(tracing):
            assert getattr(m, attr) is not before[(m.__name__, attr)], (m.__name__, attr)
    for (m, attr) in _hooks(tracing):
        assert getattr(m, attr) is before[(m.__name__, attr)], (m.__name__, attr)


@pytest.mark.parametrize("name", [
    "bisimap.semantics.executions_up_to",
    "bisimap.semantics.word_poset",
    "bisimap.semantics.fair_target_poset",
    "bisimap.semantics.fair_lassos",
    "bisimap.equiv.fair_lassos",
    "bisimap.equiv.exists_fair_run",
    "bisimap.semantics.make_presheaf",
    "bisimap.semantics.nat_trans",
    "bisimap.equiv.branching_sem_map",
    "bisimap.equiv.is_bisim_map_bounded",
])
def test_tracer_hooks_include(tracing, name):
    module, attr = name.rsplit(".", 1)
    assert (module, attr) in {(m.__name__, a) for (m, a) in _hooks(tracing)}
