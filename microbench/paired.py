#!/usr/bin/env python3
"""Paired comparison of one microbench case, or one benchmark workload, between two checkouts.

    python microbench/paired.py PARENT CHANGE CASE [--blocks 20] [--calls 20]
    python microbench/paired.py PARENT CHANGE --bench WORKLOAD [--blocks 10] [--seed 0] [--seconds 55]

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
``--calls`` calls; the block's value for that side is their median. A case
that uses ``benchmark.pedantic`` has its ``setup`` run, untimed, before
each timed call. The output gives one line per block and a summary: each side's
median over blocks, the median of the per-block ratios CHANGE / PARENT and
the number of blocks CHANGE won (ratio below 1). Its last line is the
summary as one JSON object.

With ``--bench``, a block is a pair of whole ``bench/run.py --workload
WORKLOAD --seed S --seconds T`` runs, one per checkout, each with that
checkout's own ``bench/`` and in the same alternating order. The two
resolved roots must be equally long, or the command exits 2 before any
run: the root is in every path a bench worker handles, and with hashing
fixed its length alone moves the peak RSS by hundreds of KB. Each run must
report ``correct``. The output gives each pair's ``units_per_s`` and their
ratio CHANGE / PARENT, with the pair's other metrics, then each side's
median, the parent runs' spread between quartiles, the median ratio and
the number of pairs CHANGE won (ratio above 1: more units per second is
better). The JSON summary adds each metric's median on both sides.

It also gives a verdict on each end-to-end metric of ``BENCHMARK.json``,
in the direction its ``better`` names, from two tests that must agree:
- an exact two-sided sign test over the pairs, ties counting for neither
  side, at p <= 0.05 (at 10 pairs, 9 of 10 gives p = 0.021 and 8 of 10
  gives p = 0.109);
- a 95 % percentile-bootstrap interval of the median log-ratio
  log(CHANGE / PARENT) over the pairs, signed so that above 0 is better,
  from 2,000 resamples of the pairs drawn from a fixed seed (Kalibera and
  Jones, "Rigorous benchmarking in reasonable time", ISMM 2013). A metric
  with a value <= 0 has no interval.
The verdict is ``better`` or ``worse`` when the sign test says so and the
interval lies wholly on that side of 0, ``equal`` when every pair ties, and
``unresolved`` otherwise. The JSON summary carries the verdicts.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

MICROBENCH = Path(__file__).resolve().parent
BENCHMARK = MICROBENCH.parent / "BENCHMARK.json"
SIGN_TEST_ALPHA = 0.05
BOOTSTRAP_RESAMPLES = 2000
BOOTSTRAP_SEED = 0
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
PROCESS_TIMEOUT_S = 600.0
BENCH_METRIC = "units_per_s"


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

    def pedantic(target, args=(), kwargs=None, setup=None, **_rounds):
        """``benchmark.pedantic``: one timed call, after an untimed ``setup`` that may
        return its (args, kwargs)."""
        made = setup() if setup is not None else None
        if made is not None:
            args, kwargs = made
        return benchmark(target, *args, **(kwargs or {}))

    benchmark.pedantic = pedantic
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


def alternating(args, run):
    """Per block, its index and ``{side: run(checkout, args)}``, PARENT first in odd blocks."""
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    for block in range(args.blocks):
        order = ["parent", "change"] if block % 2 == 0 else ["change", "parent"]
        yield block, {side: run(sides[side], args) for side in order}


def compare(args) -> dict:
    old, new, ratios = [], [], []
    for block, value in alternating(args, run_side):
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


def bench_metrics(output: str) -> dict:
    """Name -> value of each metric a correct ``bench/run.py`` output ends with."""
    try:
        result = json.loads(output.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = {}
    if not result.get("correct"):
        raise RuntimeError(f"benchmark run not correct:\n{output.strip()[-2000:]}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def iqr(values) -> float:
    """The spread between the quartiles (0 for a single value)."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return q3 - q1


def sign_test_p(wins: int, losses: int) -> float:
    """Exact two-sided sign test: the chance of a split at least this uneven
    among ``wins + losses`` fair coin flips."""
    n = wins + losses
    return min(1.0, 2 * sum(math.comb(n, k) for k in range(min(wins, losses) + 1)) / 2**n)


def bootstrap_interval(old, new, sign: int) -> list[float] | None:
    """95 % percentile-bootstrap interval of the median of ``sign * log(new / old)``
    over the pairs, or None if a value is not positive."""
    if min(*old, *new) <= 0:
        return None
    logs = [sign * math.log(n / o) for o, n in zip(old, new)]
    rng = random.Random(BOOTSTRAP_SEED)
    medians = sorted(statistics.median(rng.choices(logs, k=len(logs)))
                     for _ in range(BOOTSTRAP_RESAMPLES))
    tail = BOOTSTRAP_RESAMPLES // 40  # 2.5 % on each side
    return [medians[tail], medians[-1 - tail]]


def verdict(old, new, better: str) -> dict:
    """Verdict on paired values, where ``better`` is 'higher' or 'lower': resolved only
    when the sign test and the bootstrap interval of the median log-ratio agree."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (n - o) > 0 for o, n in zip(old, new))
    losses = sum(sign * (n - o) < 0 for o, n in zip(old, new))
    p = sign_test_p(wins, losses)
    interval = bootstrap_interval(old, new, sign)
    if wins + losses == 0:
        word = "equal"
    elif p <= SIGN_TEST_ALPHA and interval and (interval[0] > 0 if wins > losses
                                                 else interval[1] < 0):
        word = "better" if wins > losses else "worse"
    else:
        word = "unresolved"
    return {"verdict": word, "p": p, "better": wins, "worse": losses,
            "interval": interval, "parent_iqr": iqr(old)}


def bench_summary(workload: str, pairs) -> dict:
    """Summary of (parent output, change output) pairs of ``bench/run.py`` runs.

    ``medians`` holds each metric's [parent, change] medians over the pairs,
    and ``verdicts`` each end-to-end metric's :func:`verdict`.
    """
    runs = [(bench_metrics(p), bench_metrics(c)) for p, c in pairs]
    old = [p[BENCH_METRIC] for p, _ in runs]
    new = [c[BENCH_METRIC] for _, c in runs]
    ratios = [c / p for p, c in zip(old, new)]
    directions = {m["name"]: m["better"] for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    return {
        "workload": workload,
        "pairs": len(ratios),
        "ratios": ratios,
        "parent": statistics.median(old),
        "change": statistics.median(new),
        "parent_iqr": iqr(old),
        "ratio": statistics.median(ratios),
        "won": sum(r > 1.0 for r in ratios),
        "medians": {name: [statistics.median(p[name] for p, _ in runs),
                           statistics.median(c[name] for _, c in runs)] for name in runs[0][0]},
        "verdicts": {name: verdict([p[name] for p, _ in runs], [c[name] for _, c in runs], better)
                     for name, better in directions.items() if name in runs[0][0]},
    }


def run_bench(checkout: Path, args) -> str:
    """The output of one ``bench/run.py`` run of ``checkout``, from its own root."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(checkout / "bench" / "run.py"), "--workload", args.bench,
         "--seed", str(args.seed), "--seconds", str(args.seconds)],
        env=env, cwd=checkout, capture_output=True, text=True,
        timeout=PROCESS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        output = (proc.stdout + proc.stderr)[-2000:]
        raise RuntimeError(f"bench/run.py failed on {checkout}:\n{output}")
    return proc.stdout


def compare_bench(args) -> dict:
    pairs = []
    for block, output in alternating(args, run_bench):
        pairs.append((output["parent"], output["change"]))
        old, new = (bench_metrics(output[side]) for side in ("parent", "change"))
        print(f"pair {block + 1}: parent {old[BENCH_METRIC]:.6g}, change {new[BENCH_METRIC]:.6g} "
              f"{BENCH_METRIC}, ratio {new[BENCH_METRIC] / old[BENCH_METRIC]:.4f}; "
              + ", ".join(f"{name} {old[name]:.6g} -> {new[name]:.6g}"
                          for name in old if name != BENCH_METRIC), flush=True)
    summary = bench_summary(args.bench, pairs)
    print(f"{args.bench} {BENCH_METRIC}: parent median {summary['parent']:.6g} "
          f"(IQR {summary['parent_iqr']:.3g}), change median {summary['change']:.6g}; "
          f"paired median change/parent {summary['ratio']:.4f} "
          f"({(summary['ratio'] - 1) * 100:+.1f} %), change won {summary['won']} of "
          f"{summary['pairs']} pairs")
    for name, v in summary["verdicts"].items():
        parent, change = summary["medians"][name]
        interval = "none" if v["interval"] is None else "[{:+.4f}, {:+.4f}]".format(*v["interval"])
        print(f"{name}: parent median {parent:.6g} (IQR {v['parent_iqr']:.3g}), change median "
              f"{change:.6g}; change better in {v['better']}, worse in {v['worse']} of "
              f"{summary['pairs']} pairs, sign test p = {v['p']:.3f}, median log-ratio "
              f"interval {interval} (above 0 is better): {v['verdict']}")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--worker", metavar="CHECKOUT", help=argparse.SUPPRESS)
    parser.add_argument("operands", nargs="+", metavar="PARENT CHANGE [CASE]")
    parser.add_argument("--blocks", type=int, default=20)
    parser.add_argument("--calls", type=int, default=20, help="timed calls per block and side")
    parser.add_argument("--bench", metavar="WORKLOAD",
                        help="alternate whole bench/run.py runs of WORKLOAD instead of a case")
    parser.add_argument("--seed", type=int, default=0, help="bench/run.py --seed")
    parser.add_argument("--seconds", type=float, default=55.0, help="bench/run.py --seconds")
    args = parser.parse_args(argv)
    if min(args.blocks, args.calls) < 1:
        parser.error("--blocks and --calls must be at least 1")
    if args.worker:
        args.case, = args.operands
        try:
            print(json.dumps(worker(Path(args.worker).resolve(), args.case, args.calls)))
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
        return 0
    if args.bench:
        if len(args.operands) != 2:
            parser.error("give two checkouts, PARENT and CHANGE, with --bench")
        args.parent, args.change = args.operands
        lengths = [len(str(Path(root).resolve())) for root in args.operands]
        if lengths[0] != lengths[1]:
            parser.error("--bench needs checkout roots of equal length: PARENT resolves to "
                         f"{lengths[0]} characters, CHANGE to {lengths[1]}")
        try:
            print(json.dumps(compare_bench(args)))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(exc, file=sys.stderr)
            return 1
        return 0
    if len(args.operands) != 3:
        parser.error("give two checkouts, PARENT and CHANGE, before CASE")
    args.parent, args.change, args.case = args.operands
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
