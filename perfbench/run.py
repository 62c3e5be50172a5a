"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload wire_warm --seed 1 --seconds 12 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it (``per_kind {...}``) counts attempted and failed
operations per kind.  Run it from the root of a checkout; it exits 2,
printing no result, when the program's sources are not there.
"""

from __future__ import annotations

import argparse
import json
import sys

import harness


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("wire_warm", "cold_compute",
                                               "live_churn"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKLOAD",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    harness.require_program()
    harness.pin_to_one_cpu()
    import workloads

    if args.setup_probe:
        print(json.dumps({"setup_s": workloads.setup_probe(args.setup_probe)}))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    out = workloads.run(args.workload, args.seed, args.seconds,
                        bool(args.trace))
    print("per_kind " + json.dumps(out["per_kind"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
