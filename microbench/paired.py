#!/usr/bin/env python3
"""Paired comparison of one microbench case between two checkouts.

    python microbench/paired.py PARENT CHANGE CASE [--blocks 20] [--calls 20]

PARENT and CHANGE are the roots of two neuromesh checkouts. CASE names one
case of this directory, such as ``test_control.py::test_ten_robot_learned_run[20]``:
a file, a function and, for a parametrized case, the id of one parameter
combination (its values joined with ``-``, as ``tests/test_microbench_smoke.py``
prints them). The case's code is always read from this directory; each
checkout supplies only its ``src/`` package, so both sides run the same
benchmark code against two versions of neuromesh.

Each block runs the case once per checkout, each time in a fresh process:
PARENT first in odd blocks (the 1st, 3rd, ...) and CHANGE first in even
ones, so that a drift of the host's speed falls on both sides alike. A
process makes one untimed call of the benchmarked function and then times
``--calls`` calls; the block's value for that side is their median. The output gives one line per block and a summary: each side's
median over blocks, the median of the per-block ratios CHANGE / PARENT and
the number of blocks CHANGE won (ratio below 1). Its last line is the
summary as one JSON object.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

MICROBENCH = Path(__file__).resolve().parent
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
PROCESS_TIMEOUT_S = 600.0


def parse_case(case: str) -> tuple[str, str, str | None]:
    """``file::function[id]`` -> (file, function, id or None)."""
    file, sep, rest = case.partition("::")
    if not sep or not rest:
        raise ValueError(f"CASE must be FILE::FUNCTION[ID], got {case!r}")
    name, _, param_id = rest.partition("[")
    if param_id and not param_id.endswith("]"):
        raise ValueError(f"unclosed parameter id in {case!r}")
    return file, name, param_id[:-1] or None


def parameter_sets(fn):
    """(id, keyword arguments) of each parameter combination of a case."""
    axes = []
    for mark in getattr(fn, "pytestmark", []):
        if mark.name != "parametrize":
            continue
        names, values = mark.args[:2]
        names = [n.strip() for n in names.split(",")] if isinstance(names, str) else list(names)
        axes.append([dict(zip(names, v if len(names) > 1 else (v,))) for v in values])
    for combo in itertools.product(*axes):
        kwargs = {k: v for part in combo for k, v in part.items()}
        yield "-".join(str(getattr(v, "__name__", v)) for v in kwargs.values()), kwargs


def load_case(case: str):
    """The case function and the keyword arguments CASE selects."""
    file, name, param_id = parse_case(case)
    path = MICROBENCH / file
    spec = importlib.util.spec_from_file_location(f"microbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    fn = getattr(module, name, None)
    if not callable(fn):
        raise ValueError(f"{file} has no case {name!r}")
    sets = dict(parameter_sets(fn))
    if param_id is None and list(sets) == [""]:
        return fn, {}
    if param_id not in sets:
        raise ValueError(f"{file}::{name} has parameter ids {sorted(sets)}, not {param_id!r}")
    return fn, sets[param_id]


def worker(checkout: Path, case: str, calls: int) -> dict:
    """Time ``calls`` calls of the case's benchmarked function in this process."""
    import neuromesh

    package = Path(neuromesh.__file__).resolve()
    if (checkout / "src") not in package.parents:
        raise RuntimeError(f"imported {package}, not the package under {checkout / 'src'}")
    fn, kwargs = load_case(case)
    times: list[int] = []

    def benchmark(target, *args, **kw):
        start = time.perf_counter_ns()
        result = target(*args, **kw)
        times.append(time.perf_counter_ns() - start)
        return result

    fn(benchmark=benchmark, **kwargs)  # warm-up
    times.clear()
    for _ in range(calls):
        fn(benchmark=benchmark, **kwargs)
    return {"ns": times}


def run_side(checkout: Path, args) -> float:
    """Median ns per call of one fresh process on ``checkout``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), **THREAD_ENV)
    proc = subprocess.run(
        [sys.executable, __file__, "--worker", str(checkout), args.case, "--calls", str(args.calls)],
        env=env, cwd=checkout, capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"case failed on {checkout}:\n{proc.stderr.strip()}")
    return statistics.median(json.loads(proc.stdout.splitlines()[-1])["ns"])


def compare(args) -> dict:
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    old, new, ratios = [], [], []
    for block in range(args.blocks):
        order = ["parent", "change"] if block % 2 == 0 else ["change", "parent"]
        value = {side: run_side(sides[side], args) for side in order}
        old.append(value["parent"])
        new.append(value["change"])
        ratios.append(value["change"] / value["parent"])
        print(f"block {block + 1}: parent {value['parent'] / 1e3:.3f} us, "
              f"change {value['change'] / 1e3:.3f} us, ratio {ratios[-1]:.4f}", flush=True)
    summary = {
        "case": args.case,
        "blocks": args.blocks,
        "calls": args.calls,
        "parent_us": statistics.median(old) / 1e3,
        "change_us": statistics.median(new) / 1e3,
        "ratio": statistics.median(ratios),
        "won": sum(r < 1.0 for r in ratios),
    }
    print(f"{args.case}: parent {summary['parent_us']:.3f} us, change "
          f"{summary['change_us']:.3f} us; paired median change/parent "
          f"{summary['ratio']:.4f} ({(summary['ratio'] - 1) * 100:+.1f} %), "
          f"change won {summary['won']} of {args.blocks} blocks")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--worker", metavar="CHECKOUT", help=argparse.SUPPRESS)
    parser.add_argument("checkouts", nargs="*", metavar="PARENT CHANGE")
    parser.add_argument("case", metavar="CASE")
    parser.add_argument("--blocks", type=int, default=20)
    parser.add_argument("--calls", type=int, default=20, help="timed calls per block and side")
    args = parser.parse_args(argv)
    if min(args.blocks, args.calls) < 1:
        parser.error("--blocks and --calls must be at least 1")
    if args.worker:
        try:
            print(json.dumps(worker(Path(args.worker).resolve(), args.case, args.calls)))
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
        return 0
    if len(args.checkouts) != 2:
        parser.error("give two checkouts, PARENT and CHANGE, before CASE")
    args.parent, args.change = args.checkouts
    try:
        file, _, _ = parse_case(args.case)
    except ValueError as exc:
        parser.error(str(exc))
    if not (MICROBENCH / file).is_file():
        parser.error(f"no microbench file {file!r} in {MICROBENCH}")
    try:
        print(json.dumps(compare(args)))
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
