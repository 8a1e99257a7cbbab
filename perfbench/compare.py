"""Compare two sets of serving-benchmark outputs, metric by metric.

    python3 perfbench/compare.py BASE.txt NEW.txt

Each file holds the standard output of one or more ``run.py`` runs
appended together.  Runs are grouped by workload and trace mode; for each
metric the script prints both medians and the change.  A comparison
between runs whose host or configuration fingerprints differ (cores, CPU
model, Python, SQLite, clients, server flags, ...) is flagged, because
its numbers do not measure the same thing.  Differences in the seeded data
(rows, conflicts, priority edges) are listed but not flagged.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Tuple

FLAGGED = ("host", "config")
NOTED = ("data",)


def load(path: str) -> Dict[Tuple[str, int], List[Tuple[dict, dict]]]:
    """(workload, trace) -> [(record, result), ...] from run.py output."""
    runs: Dict[Tuple[str, int], List[Tuple[dict, dict]]] = {}
    record = None
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line.startswith("{"):
                continue
            body = json.loads(line)
            if "host" in body:
                record = body
            elif "metrics" in body and record is not None:
                key = (record["workload"], record["config"]["trace"])
                runs.setdefault(key, []).append((record, body))
                record = None
    return runs


def _differences(base: List[dict], new: List[dict], section: str) -> List[str]:
    lines = []
    for field in sorted({k for r in base + new for k in r.get(section, {})}):
        if field in ("seed", "trace"):
            continue
        left = sorted({json.dumps(r[section].get(field)) for r in base})
        right = sorted({json.dumps(r[section].get(field)) for r in new})
        if left != right:
            lines.append(f"{section}.{field}: {', '.join(left)} vs {', '.join(right)}")
    return lines


def _values(runs, name: str) -> List[dict]:
    return [r["metrics"][name] for _, r in runs if name in r["metrics"]]


def compare(base_path: str, new_path: str) -> int:
    base, new = load(base_path), load(new_path)
    flagged = False
    for key in sorted(set(base) | set(new)):
        workload, trace = key
        print(f"== {workload} (trace {trace}): "
              f"{len(base.get(key, []))} vs {len(new.get(key, []))} runs")
        if key not in base or key not in new:
            print("   only on one side")
            continue
        left = [record for record, _ in base[key]]
        right = [record for record, _ in new[key]]
        for section in FLAGGED:
            for line in _differences(left, right, section):
                flagged = True
                print(f"   FINGERPRINT DIFFERS {line}")
        for section in NOTED:
            for line in _differences(left, right, section):
                print(f"   note {line}")
        names = sorted({n for _, r in base[key] + new[key] for n in r["metrics"]})
        for name in names:
            a, b = _values(base[key], name), _values(new[key], name)
            if not a or not b:
                continue
            ma = statistics.median(m["value"] for m in a)
            mb = statistics.median(m["value"] for m in b)
            change = f"{(mb - ma) / ma:+.1%}" if ma else "n/a"
            unit = a[0]["unit"]
            print(f"   {name:40s} {ma:12.4f} {mb:12.4f} {unit:12s} {change}")
    if flagged:
        print("fingerprints differ: these numbers are not comparable")
    return 1 if flagged else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(compare(sys.argv[1], sys.argv[2]))
