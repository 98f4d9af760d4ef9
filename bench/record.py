"""Record the predictions digest and F1 of every scenario into expected.json.

    python3 bench/record.py --workload http-kateplus

Run from the repository root, only when a change is meant to alter the
program's outputs. Each scenario gets one untraced pass; the stub answers
without its delay, which changes no output.
"""
from __future__ import annotations

import argparse
import json
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()
    run.import_program()
    from workloads import SCENARIOS

    expected = json.loads(run.EXPECTED.read_text()) if run.EXPECTED.exists() else {}
    table = expected.setdefault(args.workload, {})
    for scenario in range(SCENARIOS):
        with run.open_bench(args.workload, scenario, stub_delay_ms=0.0) as bench:
            result = bench.run_pass(0, traced=False)
        if result.failed or result.replay_error:
            print(f"scenario {scenario}: {result.failed} failed, {result.replay_error}",
                  file=sys.stderr)
            return 1
        table[str(scenario)] = {"digest": result.digest, "f1": result.f1}
        print(f"{args.workload} scenario {scenario}: f1 {result.f1}", file=sys.stderr)
        run.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
