"""The ``python -m repro`` command line interface.

One front end for the whole evaluation layer, built on the two registries:

* ``python -m repro run --table 1 --jobs 4`` — regenerate Table I with four
  parallel worker subprocesses;
* ``python -m repro run --scenario multiplier --methods smv,hash --budget 10``
  — measure any registered scenario with any registered backends;
* ``python -m repro list-backends`` / ``list-scenarios`` — discover what is
  registered;
* ``python -m repro ablations`` — the Section-V ablation studies;
* ``python -m repro serve`` — the resident evaluation daemon (persistent
  worker pool + shared result cache); ``repro run ... --via-daemon``
  submits cells to it instead of running them locally;
* ``python -m repro cache stats|clear`` — inspect or clear the on-disk
  result cache, which the daemon shares.

``--jobs N`` runs up to ``N`` cells concurrently on a pool of worker
subprocesses with the time budget enforced as a wall-clock kill; results
are collected in table order, so the output is byte-identical for every
``--jobs`` value — and, with cached cells, identical again through
``--via-daemon``.  ``--no-isolate`` reverts to in-process execution with
cooperative budget checks (no kills, no parallelism).  Every run uses the
on-disk result cache under ``.benchmarks/cache/`` unless ``--no-cache``;
a ``cache: hits=H misses=M`` summary goes to stderr so the table on
stdout stays byte-comparable.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional, Sequence

from .eval import cache as result_cache
from .eval import runner, scenarios, service, table1, table2
from .eval.fuzz import DEFAULT_METHODS as DEFAULT_FUZZ_METHODS
from .verification import registry


def _parse_scalar(text: str) -> Any:
    low = text.lower()
    if low in ("none", "null"):
        return None
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _parse_param(item: str) -> tuple:
    """``key=value`` with scalars, or comma-separated lists of scalars."""
    if "=" not in item:
        raise argparse.ArgumentTypeError(
            f"--param expects key=value, got {item!r}"
        )
    key, _, raw = item.partition("=")
    if "," in raw:
        return key, [_parse_scalar(part) for part in raw.split(",") if part]
    return key, _parse_scalar(raw)


def _parse_methods(raw: Optional[str]) -> Optional[List[str]]:
    """Split ``--methods`` on commas; an unknown backend raises KeyError."""
    if raw is None:
        return None
    methods = [m for m in raw.split(",") if m]
    for method in methods:
        registry.get_checker(method)  # raises with the known-method list
    return methods


def _make_stream_printer():
    """The ``--stream`` callback: one line per cell as its future completes.

    Purely additive progress output — the final serial-order table render
    stays byte-identical with and without streaming.
    """
    done = [0]

    def on_result(_index: int, measurement) -> None:
        done[0] += 1
        print(
            f"[cell {done[0]}] {measurement.workload} / {measurement.method}: "
            f"{measurement.verdict} ({measurement.seconds:.2f}s)",
            flush=True,
        )

    return on_result


def _execution(args: argparse.Namespace) -> Optional[Dict[str, Any]]:
    """The ``run_cells`` options of the shared execution flags.

    Opens the daemon client (checking that a daemon answers) or the result
    cache.  Prints the error and returns ``None`` when the flags cannot be
    honoured.
    """
    if args.via_daemon and args.no_isolate:
        print("error: --via-daemon and --no-isolate are mutually exclusive",
              flush=True)
        return None
    client = None
    cache = None
    if args.via_daemon:
        client = service.DaemonClient(args.socket)
        try:
            client.ping()
        except (OSError, EOFError):
            print(f"error: no daemon listening on {client.socket_path} "
                  "(start one with: python -m repro serve)", flush=True)
            return None
    elif not args.no_cache:
        cache = result_cache.ResultCache(
            args.cache_dir or result_cache.default_cache_dir()
        )
    return dict(
        jobs=1 if args.no_isolate else args.jobs,
        isolate=not args.no_isolate,
        on_result=_make_stream_printer() if args.stream else None,
        cache=cache,
        client=client,
    )


def _print_cache_summary(execution: Dict[str, Any]) -> None:
    """The ``cache: hits=H misses=M`` line, on stderr.

    stdout carries only the table, so cold and warm runs stay
    byte-comparable (the CI daemon-smoke lane diffs stdout and greps
    stderr for the hit counters).
    """
    client, cache = execution["client"], execution["cache"]
    if client is not None:
        print(f"cache: hits={client.stats['cache_hits']} "
              f"misses={client.stats['cache_misses']} (daemon)",
              file=sys.stderr, flush=True)
    elif cache is not None:
        print(f"cache: hits={cache.hits} misses={cache.misses}",
              file=sys.stderr, flush=True)


#: the scenario each ``--table N`` runs, under the paper's title
TABLE_SCENARIOS = {1: "figure2", 2: "iwls"}


def _cmd_run(args: argparse.Namespace) -> int:
    params: Dict[str, Any] = dict(args.param or [])
    # Table I's skip policy is the one parameter a table adds to its scenario
    skip_hopeless = args.table == 1 and not params.pop("no_skip", False)
    name = TABLE_SCENARIOS.get(args.table, args.scenario)
    execution = _execution(args)
    if execution is None:
        return 2
    try:
        methods = (_parse_methods(args.methods)
                   or list(scenarios.get_scenario(name).default_methods))
        workloads = scenarios.build_scenario(name, **params)
        run = table1.run_table1 if skip_hopeless else runner.run_rows
        rows = run(workloads, methods, time_budget=args.budget,
                   node_budget=args.node_budget, shards=args.shards,
                   **execution)
    except (KeyError, TypeError, ValueError) as exc:
        print(f"error: {exc}", flush=True)
        return 2
    if args.table == 1:
        print(table1.render(rows, methods))
    elif args.table == 2:
        print(table2.render(rows, methods))
    else:
        print(runner.render_table(rows, methods, title=f"Scenario {name!r}"))
    _print_cache_summary(execution)
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .eval import fuzz

    if args.replay:
        try:
            spec, method, kind = fuzz.load_repro(args.replay)
            cell = fuzz.build_cell(spec)
            measurement = runner.run_cell(
                cell.workload, method, args.budget, args.node_budget,
            )
        except (OSError, ValueError, KeyError, fuzz.FuzzError) as exc:
            print(f"error: {exc}", flush=True)
            return 2
        found = fuzz.violation_of(
            registry.get_checker(method), cell.expected, measurement
        )
        print(f"replay {cell.workload.name} / {method}: "
              f"verdict {measurement.verdict} "
              f"(expected {cell.expected}; recorded violation: {kind})")
        if found is not None:
            print(f"violation reproduces: {found[0]} — {found[1]}")
            return 1
        print("violation does not reproduce")
        return 0

    execution = _execution(args)
    if execution is None:
        return 2
    try:
        methods = _parse_methods(args.methods) or list(fuzz.DEFAULT_METHODS)
        specs = fuzz.make_specs(
            args.cells, args.seed, n_inputs=args.inputs,
            n_flipflops=args.flipflops, n_gates=args.gates,
            n_faults=args.faults,
        )
        report = fuzz.run_fuzz(
            specs, methods=methods,
            time_budget=args.budget, node_budget=args.node_budget,
            shrink=not args.no_shrink, max_shrinks=args.max_shrinks,
            out_dir=args.out_dir, **execution,
        )
    except (KeyError, TypeError, ValueError, fuzz.FuzzError) as exc:
        print(f"error: {exc}", flush=True)
        return 2
    print(report.render())
    # diagnostics go to stderr so the table on stdout stays byte-comparable
    # across serial / --jobs / --via-daemon runs
    for violation in report.violations:
        print(f"VIOLATION {violation.cell} / {violation.method}: "
              f"{violation.kind} ({violation.detail})",
              file=sys.stderr, flush=True)
    for cell in report.disagreements:
        print(f"DISAGREEMENT {cell}", file=sys.stderr, flush=True)
    for path in report.repro_paths:
        print(f"repro written: {path}", file=sys.stderr, flush=True)
    _print_cache_summary(execution)
    return 1 if (report.violations or report.disagreements) else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    socket_path = args.socket or service.default_socket_path()
    if args.stop:
        try:
            service.DaemonClient(socket_path).shutdown()
        except (OSError, EOFError):
            print(f"no daemon listening on {socket_path}", flush=True)
            return 1
        print(f"daemon on {socket_path} stopped", flush=True)
        return 0
    if args.ping:
        try:
            info = service.DaemonClient(socket_path).ping()
        except (OSError, EOFError):
            print(f"no daemon listening on {socket_path}", flush=True)
            return 1
        print(f"daemon alive on {socket_path}: pid={info['pid']} "
              f"jobs={info['jobs']} cells_run={info['cells_run']} "
              f"recycled={info['recycled']}", flush=True)
        return 0
    cache = None
    if not args.no_cache:
        cache = result_cache.ResultCache(
            args.cache_dir or result_cache.default_cache_dir()
        )
    try:
        service.serve(socket_path, jobs=args.jobs, cache=cache,
                      log=lambda line: print(line, flush=True))
    except RuntimeError as exc:  # another daemon already owns the socket
        print(f"error: {exc}", flush=True)
        return 2
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        pass
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    directory = args.cache_dir or result_cache.default_cache_dir()
    store = result_cache.ResultCache(directory)
    if args.action == "stats":
        count, nbytes = store.disk_entries()
        print(f"cache dir : {directory}")
        print(f"entries   : {count} ({nbytes} bytes)")
        return 0
    print(f"removed {store.clear()} cached result(s) from {directory}")
    return 0


def _cmd_list_backends(_args: argparse.Namespace) -> int:
    for name in registry.available_checkers():
        checker = registry.get_checker(name)
        budgets = ", ".join(sorted(checker.accepts))
        print(f"{name:10s} [{checker.kind}]  {checker.description}")
        print(f"{'':10s} accepts: {budgets}")
    return 0


def _cmd_list_scenarios(_args: argparse.Namespace) -> int:
    for name in scenarios.available_scenarios():
        scenario = scenarios.get_scenario(name)
        print(f"{name:12s} {scenario.description}")
        defaults = ", ".join(f"{k}={v!r}" for k, v in scenario.defaults.items())
        print(f"{'':12s} params : {defaults or '(none)'}")
        print(f"{'':12s} methods: {', '.join(scenario.default_methods)}")
    return 0


def _cmd_ablations(args: argparse.Namespace) -> int:
    from .eval import ablations

    if args.which in ("cut-sweep", "all"):
        print(ablations.render_cut_sweep(ablations.run_cut_sweep()))
    if args.which == "all":
        print()
    if args.which in ("rtl-vs-gate", "all"):
        print(ablations.render_rtl_vs_gate(ablations.run_rtl_vs_gate()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="regenerate the paper's tables with registered "
                    "backends/scenarios and a process-isolated parallel runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # how and where cells execute: the flags `run` and `fuzz` share
    execution_flags = argparse.ArgumentParser(add_help=False)
    execution_flags.add_argument(
        "--jobs", type=int, default=1,
        help="max concurrent worker subprocesses (default 1)")
    execution_flags.add_argument(
        "--no-isolate", action="store_true",
        help="run cells in-process with cooperative budgets (implies --jobs 1)")
    execution_flags.add_argument(
        "--stream", action="store_true",
        help="print each cell as its future completes (completion order); "
             "the final table render is unchanged")
    execution_flags.add_argument(
        "--via-daemon", action="store_true",
        help="submit cells to a resident `repro serve` daemon (its pool size "
             "applies; --jobs is ignored)")
    execution_flags.add_argument(
        "--socket", default=None,
        help="daemon socket path (default: $REPRO_SOCKET or "
             f"{service.DEFAULT_SOCKET})")
    execution_flags.add_argument(
        "--no-cache", action="store_true",
        help="disable the content-addressed result cache (local modes; the "
             "daemon owns its own cache)")
    execution_flags.add_argument(
        "--cache-dir", default=None,
        help="result cache directory (default: $REPRO_CACHE_DIR or "
             f"{result_cache.DEFAULT_CACHE_DIR})")

    run_p = sub.add_parser(
        "run", help="measure one table or scenario", parents=[execution_flags],
        description="Measure a registered scenario (or one of the paper's "
                    "tables) with the requested backends.",
    )
    target = run_p.add_mutually_exclusive_group()
    target.add_argument("--table", type=int, choices=(1, 2),
                        help="regenerate the paper's Table I or Table II: "
                             "the figure2 or iwls scenario under the "
                             "paper's title (Table I also takes --param "
                             "no_skip=1 to run every verifier cell)")
    target.add_argument("--scenario", default="figure2",
                        help="a registered scenario (see list-scenarios)")
    run_p.add_argument("--methods", default=None,
                       help="comma-separated backends (see list-backends); "
                            "defaults to the table's/scenario's own methods")
    run_p.add_argument("--shards", type=int, default=1,
                       help="split each shardable cell (fraig, taut, "
                            "taut-rw) into up to N sibling jobs; the "
                            "merged measurement is shard-count independent "
                            "(default 1)")
    run_p.add_argument("--budget", type=float, default=runner.DEFAULT_TIME_BUDGET,
                       help="per-cell wall-clock budget in seconds; enforced "
                            "as a hard kill unless --no-isolate")
    run_p.add_argument("--node-budget", type=int, default=runner.DEFAULT_NODE_BUDGET,
                       help="per-cell BDD node budget")
    run_p.add_argument("--param", action="append", type=_parse_param,
                       metavar="KEY=VALUE",
                       help="scenario parameter (repeatable), e.g. "
                            "--param widths=1,2,4 or --param scale=0.2")
    run_p.set_defaults(func=_cmd_run)

    fuzz_p = sub.add_parser(
        "fuzz", help="run the adversarial fault-injection fuzz oracle",
        parents=[execution_flags],
        description="Generate seeded fuzz cells (random circuits x legal "
                    "retimings x visible injected faults), run every "
                    "requested backend on each, and cross-check all verdicts "
                    "against the injected-fault ground truth and against "
                    "each other.  Violations are delta-debugged to minimal "
                    "replayable JSON repros.  Exits 1 on any violation or "
                    "cross-backend disagreement.",
    )
    fuzz_p.add_argument("--cells", type=int, default=12,
                        help="number of fuzz cells (default 12); flavours "
                             "cycle retime / fault / retime-fault")
    fuzz_p.add_argument("--seed", type=int, default=0,
                        help="base seed; cell i uses seed+i (default 0)")
    fuzz_p.add_argument("--methods", default=None,
                        help="comma-separated backends (default "
                             f"{','.join(DEFAULT_FUZZ_METHODS)}); each runs "
                             "only on the flavours it is applicable to")
    fuzz_p.add_argument("--inputs", type=int, default=4,
                        help="primary inputs per fuzz circuit (default 4)")
    fuzz_p.add_argument("--flipflops", type=int, default=5,
                        help="flip-flops per fuzz circuit (default 5)")
    fuzz_p.add_argument("--gates", type=int, default=24,
                        help="gates per fuzz circuit (default 24)")
    fuzz_p.add_argument("--faults", type=int, default=2,
                        help="visible faults injected per inequivalent cell "
                             "(default 2)")
    fuzz_p.add_argument("--budget", type=float, default=20.0,
                        help="per-cell wall-clock budget in seconds "
                             "(default 20)")
    fuzz_p.add_argument("--node-budget", type=int, default=500_000,
                        help="per-cell BDD node budget (default 500000)")
    fuzz_p.add_argument("--out-dir", default=None,
                        help="directory for minimised repros (default "
                             ".benchmarks/fuzz)")
    fuzz_p.add_argument("--no-shrink", action="store_true",
                        help="skip delta-debugging of violations")
    fuzz_p.add_argument("--max-shrinks", type=int, default=24,
                        help="re-measurement budget per shrunk violation "
                             "(default 24)")
    fuzz_p.add_argument("--replay", default=None, metavar="FILE",
                        help="replay a minimised repro file instead of "
                             "sweeping; exits 1 if the violation reproduces")
    fuzz_p.set_defaults(func=_cmd_fuzz)

    serve_p = sub.add_parser(
        "serve", help="run the resident evaluation daemon",
        description="Serve cell jobs from a persistent worker pool with a "
                    "shared content-addressed result cache.  Clients submit "
                    "batches with `repro run ... --via-daemon`; repeated "
                    "cells are served from cache without re-proving.",
    )
    serve_p.add_argument("--jobs", type=int, default=2,
                         help="persistent worker subprocesses (default 2)")
    serve_p.add_argument("--socket", default=None,
                         help="socket path (default: $REPRO_SOCKET or "
                              f"{service.DEFAULT_SOCKET})")
    serve_p.add_argument("--cache-dir", default=None,
                         help="result cache directory (default: "
                              f"$REPRO_CACHE_DIR or {result_cache.DEFAULT_CACHE_DIR})")
    serve_p.add_argument("--no-cache", action="store_true",
                         help="serve without any result cache")
    serve_p.add_argument("--stop", action="store_true",
                         help="shut a running daemon down cleanly and exit")
    serve_p.add_argument("--ping", action="store_true",
                         help="check whether a daemon is listening and exit")
    serve_p.set_defaults(func=_cmd_serve)

    cache_p = sub.add_parser(
        "cache", help="inspect or clear the content-addressed result cache",
    )
    cache_p.add_argument("action", choices=("stats", "clear"))
    cache_p.add_argument("--cache-dir", default=None,
                         help="result cache directory (default: "
                              f"$REPRO_CACHE_DIR or {result_cache.DEFAULT_CACHE_DIR})")
    cache_p.set_defaults(func=_cmd_cache)

    lb = sub.add_parser("list-backends", help="list registered verification backends")
    lb.set_defaults(func=_cmd_list_backends)

    ls = sub.add_parser("list-scenarios", help="list registered workload scenarios")
    ls.set_defaults(func=_cmd_list_scenarios)

    ab = sub.add_parser("ablations", help="run the Section-V ablation studies")
    ab.add_argument("--which", choices=("cut-sweep", "rtl-vs-gate", "all"),
                    default="all")
    ab.set_defaults(func=_cmd_ablations)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
