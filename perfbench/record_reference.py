"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py

Runs the ``reproduce`` job and the ``sweep`` job at the reference seed once
and writes ``perfbench/reference.json``: each cell's report values and the
sweep rows.  Run it only on a commit whose outputs are known good; the
committed file was recorded at the seed commit of the benchmark.
"""

import json
import sys
import tempfile
from pathlib import Path

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    api = run.import_package()
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        out, _ = workloads.reproduce_job(api, workloads.reproduce_inputs(0), Path(tmp))
        cells = workloads.reproduce_summary(out)
    inputs = workloads.sweep_inputs(workloads.REFERENCE_SEED)
    rows = [[",".join(row) for row in workloads.parse_sweep(text)]
            for _, text in workloads.sweep_job(api, inputs, None)[0]]
    reference = {
        "reproduce": {key: {f: v[f] for f in workloads.REPORT_FIELDS} for key, v in cells.items()},
        "sweep": rows,
    }
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
