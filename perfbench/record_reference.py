"""Record the reference that ``run.py`` checks every run's outputs against.

    python3 perfbench/record_reference.py --seeds 10

For each workload and each seed 0..n-1, runs the workload's command once
and stores the sha256 of its results/, reports/ and draws/ (what
``outputs_identical`` compares) and its pooled LPD per condition.  The
reference pooled LPD of a condition is its mean over the seeds, and its
tolerance is six standard deviations of the seed-to-seed spread, so a run
at any other seed passes while a wrong likelihood or predictive density
does not.  Re-record only when a change alters results on purpose.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics

import run


def main() -> None:
    parser = argparse.ArgumentParser(description="record perfbench/reference.json")
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()

    digests: dict[str, dict[str, str]] = {w: {} for w in run.WORKLOADS}
    lpds: dict[str, dict[str, list[float]]] = {w: {} for w in run.WORKLOADS}
    for seed in range(args.seeds):
        work, inputs = run.prepare(seed)
        try:
            for workload in run.WORKLOADS:
                out = work / workload
                result = run.run_cli(run.command(workload, inputs, seed, out), out)
                if result["code"] != 0:
                    raise SystemExit(f"{workload} seed {seed}: exit code {result['code']}")
                digests[workload][str(seed)] = run.outputs_digest(out)
                for key, value in run.pooled_lpds(workload, out).items():
                    lpds[workload].setdefault(key, []).append(value)
                print(f"{workload} seed {seed}: {result['wall_s']:.2f} s", flush=True)
        finally:
            shutil.rmtree(work, ignore_errors=True)

    reference = {
        "lpd": {w: {key: {"mean": statistics.fmean(v), "tol": 6 * statistics.stdev(v)}
                    for key, v in per_key.items()}
                for w, per_key in lpds.items() if per_key},
        "digests": digests,
    }
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    print(f"wrote {run.REFERENCE}")


if __name__ == "__main__":
    main()
