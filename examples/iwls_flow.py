#!/usr/bin/env python3
"""A Table-II style run on the IWLS'91 stand-in suite.

Builds (a scaled-down version of) the synthetic IWLS'91 benchmarks, retimes
each one along its maximal forward cut, runs the HASH formal step and the
post-synthesis verifiers, and prints the resulting table — the same code
path as ``python -m repro run --table 2``, sized so it finishes in a couple
of minutes on a laptop.  ``--jobs`` runs the cells in parallel worker
subprocesses with the budget enforced as a wall-clock kill.

Run:  python examples/iwls_flow.py [--scale 0.15] [--budget 20] [--jobs 4]
"""

import argparse

from repro.cli import main as cli_main


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scale", type=float, default=0.15,
                        help="scale factor on the published circuit sizes")
    parser.add_argument("--budget", type=float, default=20.0,
                        help="per-verifier wall-clock budget (seconds)")
    parser.add_argument("--jobs", type=int, default=2,
                        help="parallel worker subprocesses")
    parser.add_argument("--names", nargs="*", default=None,
                        help="subset of benchmarks (default: all ten)")
    args = parser.parse_args()

    argv = ["run", "--table", "2", "--budget", str(args.budget),
            "--jobs", str(args.jobs), "--param", f"scale={args.scale}"]
    if args.names:
        argv += ["--param", "names=" + ",".join(args.names)]
    code = cli_main(argv)
    print("\nNote: circuits are synthetic stand-ins with the published "
          "flip-flop/gate counts (scaled by "
          f"{args.scale}); see README.md, \"What this reproduction "
          "substitutes\".")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
