#!/usr/bin/env python3
"""Record the default-seed CSV bodies that ``run.py`` compares against.

    python3 bench/record_expected.py

Runs each workload's first ``EXPECTED_CALLS`` calls at ``DEFAULT_SEED``,
under both network seeds, requires the two bodies to be identical, and writes
them to ``bench/expected.json``. Rerun it only when a change to the
program's outputs is deliberate and documented.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main() -> int:
    sys.path.insert(0, str(BENCH.parent / "src"))
    from neuromesh import cli
    from workloads import (DEFAULT_SEED, EXPECTED_CALLS, NETWORK_SEEDS, WORKLOADS, call_config,
                           write_weights)

    bodies = {}
    with tempfile.TemporaryDirectory(dir=BENCH.parent) as tmp:
        workdir = Path(tmp)
        cfg_path = workdir / "config.json"
        for w in WORKLOADS.values():
            weights = write_weights(w, DEFAULT_SEED, workdir)
            bodies[w.name] = []
            for k in range(EXPECTED_CALLS):
                seen = set()
                for net_seed in NETWORK_SEEDS:
                    cfg_path.write_text(json.dumps(call_config(
                        w, DEFAULT_SEED, k, net_seed, workdir / "out", weights)))
                    with contextlib.redirect_stdout(io.StringIO()):
                        if cli.main(["run", str(cfg_path)]) != 0:
                            raise SystemExit(f"{w.name} call {k} failed")
                    csv = (workdir / "out" / w.csv_name).read_bytes().decode()
                    seen.add(csv.split("\n", 1)[1])
                if len(seen) != 1:
                    raise SystemExit(f"{w.name} call {k}: output depends on network.seed")
                bodies[w.name].append(seen.pop())
            print(f"{w.name}: {len(bodies[w.name])} bodies")
    (BENCH / "expected.json").write_text(
        json.dumps({"seed": DEFAULT_SEED, "bodies": bodies}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
