"""Compare two saved result sets.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the records ``run.py --save`` appends, one run per line.  For
every workload and metric this prints both medians, their ratio (new / base),
the larger of the two sides' quartile spreads as a share of its median, and
a verdict against the metric's bound in BENCHMARK.json:

* ``better``: every new run reads better than every base run;
* ``unresolved``: the run-to-run spread is wider than the bound;
* ``worse``: the new median is worse than the base median by more than the bound;
* ``within bound``: otherwise.

Per-layer metrics (traced runs) have no bound and get no verdict.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path) -> dict:
    """``{(workload, trace): {metric: [values]}}`` from a saved result set.
    Runs whose outputs failed a check are left out, with a note."""
    runs: dict = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        prov, result = record["provenance"], record["result"]
        if not result["correct"]:
            print(f"{path}: left out {prov['workload']} seed {prov['seed']}: "
                  f"{result['failed']} of {result['attempted']} operations failed")
            continue
        metrics = runs.setdefault((prov["workload"], prov["trace"]), {})
        for name, m in result["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
    return runs


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(base, new, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    if all(sign * n < sign * b for n in new for b in base):
        return "better"
    if max(spread(base), spread(new)) > bound:
        return "unresolved"
    b, n = statistics.median(base), statistics.median(new)
    worse_by = sign * (n - b) / abs(b)  # end-to-end metrics are never 0
    return "worse" if worse_by > bound else "within bound"


def compare(base: dict, new: dict, spec: dict) -> list[str]:
    rules = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    lines = []
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        lines.append(f"{workload} ({'traced' if trace else 'untraced'}; "
                     f"{len(next(iter(base[key].values())))} base runs, "
                     f"{len(next(iter(new[key].values())))} new runs)")
        for name in base[key]:
            if name not in new[key]:
                continue
            b, n = base[key][name], new[key][name]
            mb, mn = statistics.median(b), statistics.median(n)
            ratio = f"{mn / mb:.4f}" if mb else "n/a"
            rule = rules.get(name, {})
            text = (verdict(b, n, rule["better"], rule["bound"])
                    if "bound" in rule else "no bound")
            lines.append(f"  {name:42s} {mb:12.6g} {mn:12.6g}  x{ratio:>8s}  "
                         f"spread {max(spread(b), spread(n)):.3f}  {text}")
    missing = sorted(set(base) ^ set(new))
    if missing:
        lines.append(f"only in one set: {missing}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    spec = json.loads(SPEC.read_text())
    print("\n".join(compare(load(argv[0]), load(argv[1]), spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
