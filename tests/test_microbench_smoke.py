"""Every ``microbench/`` case body runs once, with a stub ``benchmark`` fixture.

The microbenchmarks live outside ``testpaths`` and need pytest-benchmark,
so a change to the internals they reach into (such as the simulator's link
records) would break them unseen. Here each case, with each of its
parameters, calls its benchmarked function exactly once and keeps its
assertions; nothing is timed.
"""

import importlib.util
import itertools
from pathlib import Path

import pytest

MICROBENCH = Path(__file__).resolve().parent.parent / "microbench"


class RunOnce:
    """Stands in for pytest-benchmark's fixture: one call, its result returned."""

    def __call__(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def pedantic(self, fn, args=(), kwargs=None, setup=None, **_rounds):
        """``benchmark.pedantic``: a ``setup`` that returns (args, kwargs) supplies them."""
        made = setup() if setup is not None else None
        if made is not None:
            args, kwargs = made
        return fn(*args, **(kwargs or {}))


run_once = RunOnce()


def grid(fn):
    """The keyword arguments of each parameter combination of a case."""
    axes = []
    for mark in getattr(fn, "pytestmark", []):
        if mark.name != "parametrize":
            continue
        names, values = mark.args[:2]
        names = [n.strip() for n in names.split(",")] if isinstance(names, str) else list(names)
        axes.append([dict(zip(names, v if len(names) > 1 else (v,))) for v in values])
    for combo in itertools.product(*axes):
        yield {k: v for part in combo for k, v in part.items()}


def cases():
    for path in sorted(MICROBENCH.glob("test_*.py")):
        spec = importlib.util.spec_from_file_location(f"microbench_{path.stem}", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        for name, fn in vars(module).items():
            if name.startswith("test_") and callable(fn):
                for kwargs in grid(fn):
                    values = (str(getattr(v, "__name__", v)) for v in kwargs.values())
                    yield pytest.param(fn, kwargs, id="-".join((f"{path.stem}.{name}", *values)))


@pytest.mark.parametrize("case, kwargs", cases())
def test_microbench_case_runs_once(case, kwargs):
    case(benchmark=run_once, **kwargs)
