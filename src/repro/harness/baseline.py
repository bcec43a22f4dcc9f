"""Committed per-key baselines for the virtual-time campaigns.

``repro serve-bench`` (one key per fault cell) and ``repro spec-bench``
(one key per app) commit a few metrics per key and fail CI when any key
leaves its :class:`Bound`. A baseline file is metric-major —
``{metric: {key: value}}`` next to the settings that produced it — so
a diff shows which key moved.

The gate cannot pass vacuously: a named baseline that does not exist
fails it, and so does a run key the baseline lacks. The values are
virtual time, deterministic for a seed, so a bound only has to absorb
intentional change, not noise.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Bound:
    """A run value must stay within ``limit × baseline ± slack``.

    Lower-is-better metrics must stay at or below
    ``limit × baseline + slack``; with ``higher_is_better`` they must
    stay at or above ``limit × baseline - slack``.
    """

    limit: float
    slack: float = 0.0
    higher_is_better: bool = False

    def threshold(self, base: float) -> float:
        """The worst value that still passes against ``base``."""
        edge = self.limit * base
        return edge - self.slack if self.higher_is_better else edge + self.slack

    def holds(self, value: float, base: float) -> bool:
        """Whether ``value`` is within this bound of ``base``."""
        edge = self.threshold(base)
        return value >= edge if self.higher_is_better else value <= edge


def record(rows: dict[str, dict], bounds: dict[str, Bound]) -> dict:
    """The gated metrics of ``rows`` in baseline (metric-major) form."""
    return {
        metric: {key: row[metric] for key, row in sorted(rows.items())}
        for metric in bounds
    }


def write_json(path: str, payload: dict) -> None:
    """Write a baseline (or any report) as sorted, indented JSON."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def gate(rows: dict[str, dict], path: str | None,
         bounds: dict[str, Bound]) -> dict:
    """Check every (key, metric) of ``rows`` against the baseline at
    ``path``.

    ``path=None`` records the run without gating it. A missing file, a
    key or metric the baseline lacks, or a run with no keys at all fails
    the gate.
    """
    result: dict = {"baseline": path, "baseline_found": False,
                    "checks": [], "ok": path is None}
    if path is None or not os.path.exists(path):
        return result
    with open(path) as fh:
        base = json.load(fh)
    result["baseline_found"] = True
    for key, row in rows.items():
        for metric, bound in bounds.items():
            per_key = base.get(metric)
            prior = per_key.get(key) if isinstance(per_key, dict) else None
            result["checks"].append({
                "key": key,
                "metric": metric,
                "value": row[metric],
                "baseline": prior,
                "threshold": None if prior is None else bound.threshold(prior),
                "ok": prior is not None and bound.holds(row[metric], prior),
            })
    checks = result["checks"]
    result["ok"] = bool(checks) and all(c["ok"] for c in checks)
    return result


def format_gate(result: dict) -> list[str]:
    """Human-readable lines for a :func:`gate` result."""
    if result["baseline"] is None:
        return ["gate:   no baseline — recording run only"]
    if not result["baseline_found"]:
        return [f"gate:   FAILED — no baseline at {result['baseline']}"]
    checks = result["checks"]
    passed = sum(c["ok"] for c in checks)
    lines = [f"gate:   {passed}/{len(checks)} per-key checks within bounds "
             f"of {result['baseline']}"]
    for c in checks:
        tag = "PASS" if c["ok"] else "FAIL"
        if c["baseline"] is None:
            detail = "missing from baseline"
        else:
            detail = (f"{c['value']:.4g} (baseline {c['baseline']:.4g}, "
                      f"bound {c['threshold']:.4g})")
        lines.append(f"  [{tag}] {c['key']} {c['metric']}: {detail}")
    return lines
