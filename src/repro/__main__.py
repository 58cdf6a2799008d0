"""Command-line runner: regenerate any paper experiment from the shell.

    python -m repro list                 # what can be run
    python -m repro list --params        # with typed parameter tables
    python -m repro run fig5_7           # one experiment
    python -m repro run fig6_5 fig6_6    # several
    python -m repro run fig6_6 --seed 3  # at a non-default seed
    python -m repro run all              # everything (minutes)
    python -m repro sweep fig6_6 --seeds 8 --jobs 4 --out /tmp/sweep
    python -m repro sweep fig6_6 --seeds 8 --shard 0/2 --out /tmp/s0
    python -m repro merge /tmp/s0 /tmp/s1 --out /tmp/merged
    python -m repro sweep fig6_6 --seeds 8 --executor subprocess --shards 2
    python -m repro lint                 # static invariant checks
    python -m repro lint --list-rules    # the rule catalogue

``run`` prints the same series its bench writes to
``benchmarks/results/`` (see EXPERIMENTS.md for the paper-vs-measured
reading guide); ``sweep`` Monte-Carlos an experiment across derived
seeds/parameter grids with caching, retry/timeout fault tolerance and
JSON/CSV artifacts; ``merge`` unions the outputs of ``--shard`` runs
back into one aggregate; ``--executor subprocess`` runs the shards
itself as supervised child processes and auto-merges (see "Dispatched
sweeps" in EXPERIMENTS.md); ``lint`` runs
the repo's AST-based invariant checks — determinism in simulation code,
imports that stay on the packages' public surface — (see "Static
analysis" in EXPERIMENTS.md).  Performance is measured by
``python3 benchmarks/ledger/run.py`` (see "Benchmarking" in README.md).

Start-up is pay-for-what-you-run: a command imports its own module
(``COMMANDS`` below is the only list of commands, and ``main`` imports
the selected one's module and no other), the runtime imports no
third-party package, and process pools are imported where one is
started, not at module top.  The same holds inside packages: the
``repro.eval`` / ``repro.obs`` / ``repro.sweep`` surfaces import no
simulator code, and a registry lookup builds only the experiment it
names, so ``list``, ``merge`` and a sweep whose cells are all cached
load nothing under ``repro.net``, ``core``, ``crypto``, ``dist`` or
``baselines``, and a warm ``sweep pik2_bench`` loads neither the other
experiments nor the scenario specs; an experiment imports what it
simulates when it runs.  ``tests/test_main_cli.py``'s import-budget
test is the contract: a new subcommand is a row in ``COMMANDS``, never
an import in ``main``.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import List

#: command -> (one-line help, ``module:function`` registering its subparser
#: and handler; an empty module means this one).
COMMANDS = {
    "list": ("list runnable experiments", ":add_list_parser"),
    "run": ("run one or more experiments", ":add_run_parser"),
    "sweep": ("Monte-Carlo sweep an experiment across seeds and parameters",
              "repro.sweep.cli:add_sweep_parser"),
    "merge": ("merge sharded sweep outputs into one aggregate",
              "repro.sweep.cli:add_merge_parser"),
    "lint": ("static invariant checks (determinism, public API surface)",
             "repro.analysis.cli:add_lint_parser"),
    "obs": ("inspect, query and diff observability artifacts",
            "repro.obs.cli:add_obs_parser"),
}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # The top-level parser has no options but -h, so the command, when
    # there is one, is argv[0].  Every other command is registered by name
    # and help only: --help, the usage line and the "invalid choice" error
    # list all six without importing their modules.
    selected = argv[0] if argv else None
    for name, (help_text, target) in COMMANDS.items():
        if name != selected:
            sub.add_parser(name, help=help_text)
            continue
        module, _, function = target.partition(":")
        namespace = (vars(importlib.import_module(module)) if module
                     else globals())
        namespace[function](sub, help=help_text)
    args = parser.parse_args(argv)
    return args.func(args)


def add_list_parser(sub, help: str) -> None:
    lister = sub.add_parser("list", help=help)
    lister.add_argument("--params", action="store_true",
                        help="also print each experiment's typed "
                             "parameter table")
    lister.set_defaults(func=cmd_list)


def add_run_parser(sub, help: str) -> None:
    run = sub.add_parser("run", help=help)
    run.add_argument("names", nargs="+",
                     help="experiment names (or 'all')")
    run.add_argument("--seed", type=int, default=None,
                     help="random seed for experiments that accept one")
    run.add_argument("--trace", default=None, metavar="DIR",
                     help="record a JSONL trace per experiment into DIR "
                          "(sim-domain events + metrics)")
    run.add_argument("--profile", action="store_true",
                     help="profile each run with cProfile and write "
                          "profile-<name>.json")
    run.add_argument("--profile-out", default=".", metavar="DIR",
                     help="directory for profile artifacts (default: .)")
    run.set_defaults(func=cmd_run)


def cmd_list(args: argparse.Namespace) -> int:
    from repro.eval import registry

    width = max(len(name) for name in registry.names())
    for name, spec in registry.registry().items():
        seeded = " [seeded]" if spec.accepts_seed else ""
        print(f"{name:<{width}}  {spec.description}{seeded}")
        if args.params:
            for param in spec.params:
                print(f"{'':<{width}}    --param {param.describe()}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from repro.eval import registry

    names = (registry.names() if "all" in args.names else args.names)
    unknown = [n for n in names if n not in registry.names()]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}",
              file=sys.stderr)
        print(f"available: {', '.join(registry.names())}", file=sys.stderr)
        return 2
    for name in names:
        spec = registry.get(name)
        params = {}
        if args.seed is not None:
            if spec.accepts_seed:
                params["seed"] = args.seed
            else:
                print(f"note: {name} takes no seed parameter; "
                      f"--seed ignored", file=sys.stderr)
        print(f"=== {name} ===")
        rec = None
        if args.trace:
            import os

            from repro.obs import JsonlSink, recorder

            rec = recorder()
            rec.enable(JsonlSink(os.path.join(args.trace,
                                              f"{name}.jsonl")))
        try:
            if args.profile:
                import os

                from repro.obs.profile import (format_profile_lines,
                                               profile_call,
                                               write_profile)

                result, stats = profile_call(spec.run, **params)
                profile_path = write_profile(stats, os.path.join(
                    args.profile_out, f"profile-{name}.json"))
            else:
                result = spec.run(**params)
        finally:
            if rec is not None:
                rec.disable()
        for line in spec.report(result):
            print(line)
        if args.profile:
            for line in format_profile_lines(stats):
                print(line)
            print(f"wrote {profile_path}")
        print()
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; not our error.  Point
        # stdout at devnull so the interpreter's exit flush stays quiet.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
