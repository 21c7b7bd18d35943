"""CSV and run-manifest emission, and the interval the summary lines print.

Every CSV starts with a versioned header comment line carrying the schema
name and a generation timestamp; everything after that first line is a
deterministic function of the run's config and seeds.

An output that already exists is unlinked and created again, not truncated
and rewritten: a rerun replaces the file, so a symlink at an output path is
replaced by a regular file and its target is never written. On ext4 a
truncated file is flushed to disk when it closes (``auto_da_alloc``), which
costs several times what a new file does.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from datetime import datetime, timezone
from pathlib import Path

CSV_FORMAT_VERSION = 1
_Z95 = 1.9599639845400536  # statistics.NormalDist().inv_cdf(0.975)


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """Wilson 95 % score interval for a binomial share (Wilson, JASA 1927).

    Unlike the normal-approximation interval it stays inside [0, 1] and
    does not collapse to a point at 0/n or n/n.
    """
    if n <= 0 or not 0 <= successes <= n:
        raise ValueError(f"need 0 <= successes <= n and n > 0, got {successes}/{n}")
    p = successes / n
    z2n = _Z95 * _Z95 / n
    center = (p + z2n / 2) / (1 + z2n)
    half = _Z95 / (1 + z2n) * math.sqrt(p * (1 - p) / n + z2n / (4 * n))
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == n else min(1.0, center + half)
    return lo, hi


def share_with_interval(count: int, n: int) -> str:
    """``count/n = P % (95 % CI lo-hi %)`` for a CLI summary line."""
    lo, hi = wilson_interval(count, n)
    return f"{count}/{n} = {100 * count / n:.1f} % (95 % CI {100 * lo:.1f}-{100 * hi:.1f} %)"


def _replace(path) -> Path:
    """``path`` as a Path, its directory made and any existing entry at it unlinked."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.unlink(missing_ok=True)
    return path


def write_csv(path, schema: str, columns, rows) -> Path:
    path = _replace(path)
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    with open(path, "w", newline="") as fh:
        fh.write(f"# neuromesh-csv schema={schema}/{CSV_FORMAT_VERSION} generated={stamp}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow(row)
    return path


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def write_manifest(path, cfg: dict, outputs) -> Path:
    path = _replace(path)
    manifest = {
        "config_sha256": config_hash(cfg),
        "seed": cfg.get("seed"),
        "network_seed": cfg.get("network", {}).get("seed"),
        "task": cfg.get("task"),
        "outputs": [str(o) for o in outputs],
        "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    return path
