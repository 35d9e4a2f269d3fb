"""Compare two sets of benchmark records, metric by metric.

    python3 perfbench/compare.py BASE.json [...] --vs NEW.json [...]

Each side is a list of records written by run.py to .bench_out/results/
for one workload and trace mode.  Prints per metric each side's median
and spread (quartile distance over the median), the change of the
medians, and the bound from BENCHMARK.json when there is one.  Refuses
(exit 2) when the records differ in machine and backend facts, workload
or trace mode.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent


def load(paths: list[str]) -> list[dict]:
    return [json.loads(Path(p).read_text()) for p in paths]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base", nargs="+")
    ap.add_argument("--vs", nargs="+", required=True, dest="new")
    args = ap.parse_args()
    base, new = load(args.base), load(args.new)
    first = base[0]
    for rec in base + new:
        for key in ("facts", "workload", "trace"):
            if rec[key] != first[key]:
                print(f"refusing to compare: {key} differs: {first[key]!r} vs {rec[key]!r}",
                      file=sys.stderr)
                return 2
    bounds = {}
    spec = ROOT / "BENCHMARK.json"
    if spec.exists():
        bounds = {m["name"]: m["bound"] for m in json.loads(spec.read_text())["end_to_end"]}
    print(f"workload {first['workload']}  trace {first['trace']}  "
          f"runs {len(base)} vs {len(new)}  facts {json.dumps(first['facts'], sort_keys=True)}")
    for name in first["metrics"]:
        sides = []
        for recs in (base, new):
            vals = [r["metrics"][name] for r in recs]
            spread = f"{stats.quartile_spread(vals):.1%}" if len(vals) > 1 else "-"
            sides.append((stats.median(vals), spread))
        (m0, s0), (m1, s1) = sides
        change = f"{(m1 - m0) / m0:+.1%}" if m0 else "n/a"
        bound = f"  bound {bounds[name]:.0%}" if name in bounds else ""
        print(f"  {name:28s} {m0:12.6g} (spread {s0})  ->  {m1:12.6g} (spread {s1})  "
              f"{change}{bound}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
