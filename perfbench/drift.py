"""Compare the drift fingerprints of two benchmark result files.

    python3 perfbench/drift.py before/result-seed1-trace0.json after/result-seed1-trace0.json

Both files must come from the same workload and seed.  A verdict, grid or
pair count, growth value or output row that differs is reported, and so is
any battery worst value whose relative change exceeds 1e-12.  Exits 1 when
anything drifted, 0 otherwise.
"""

from __future__ import annotations

import json
import sys

REL_TOL = 1e-12


def _number(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def diff(before: dict, after: dict, path: str = "") -> list[str]:
    if isinstance(before, dict) and isinstance(after, dict):
        out = []
        for key in sorted(set(before) | set(after)):
            if key not in before or key not in after:
                out.append(f"{path}{key}: only in {'after' if key in after else 'before'}")
            else:
                out += diff(before[key], after[key], f"{path}{key}.")
        return out
    a, b = _number(before), _number(after)
    if a is not None and b is not None and a != b:
        if abs(a - b) <= REL_TOL * max(abs(a), abs(b)):
            return []
        return [f"{path[:-1]}: {before} -> {after} (relative {abs(a - b) / max(abs(a), abs(b)):.2e})"]
    return [] if before == after else [f"{path[:-1]}: {before!r} -> {after!r}"]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 64
    old, new = (json.loads(open(path, encoding="utf-8").read()) for path in argv)
    if (old["workload"], old["seed"]) != (new["workload"], new["seed"]):
        print("drift: results come from different workloads or seeds", file=sys.stderr)
        return 64
    problems = diff(old["fingerprint"], new["fingerprint"])
    for line in problems:
        print(line)
    print(f"{len(problems)} drifted value(s) in {len(old['fingerprint'])} operations")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
