"""Command-line entry points: ldim, play, regret, verify."""
from __future__ import annotations

import argparse
import os
import sys

from . import runner, specs, verification
from .hypotheses import DomainError, format_point
from .littlestone import ldim, shattered_tree_witness


def _cmd_ldim(args) -> int:
    cls = specs.class_from_config(specs.load_spec(args.class_file))
    d = ldim(cls)
    print(f"hypotheses: {len(cls)}")
    print(f"domain:     {len(cls.domain)} points")
    print(f"ldim:       {d}")
    if args.witness and d >= 1:
        witness = shattered_tree_witness(cls, d)
        print(f"witness points (level order): "
              f"{[format_point(p) for p in witness.points]}")
        for labeling in sorted(witness.realizers):
            print(f"  labeling {''.join(map(str, labeling))} -> "
                  f"hypothesis {witness.realizers[labeling]}")
    return 0


def _open_csv(path: str, mode: str):
    try:
        return open(path, mode)
    except OSError as exc:
        raise DomainError(f"cannot write {path!r}: {exc.strerror or exc}") from None


def _cmd_play(args) -> int:
    learner_spec, nature_spec = specs.load_spec(args.learner), specs.load_spec(args.nature)
    if args.csv:
        # refuse an unwritable path before the game, which it would waste;
        # appending leaves a file's bytes as they are, and a file made here
        # goes again, so a game that fails leaves the path as it found it
        made = not os.path.lexists(args.csv)
        _open_csv(args.csv, "a").close()
        if made:
            os.remove(args.csv)
    trace, _ = specs.play_config(learner_spec, nature_spec, args.T, seed=args.seed)
    print(f"rounds:   {len(trace)}")
    print(f"mistakes: {trace.mistakes}")
    if args.csv:
        with _open_csv(args.csv, "w") as csv:
            csv.write(runner.trace_to_csv(trace))
        print(f"trace written to {args.csv}")
    return 0


def _cmd_regret(args) -> int:
    horizons, stats, limits = specs.regret_experiment_from_config(specs.load_spec(args.config))
    header = f"{'T':>6} {'trials':>7} {'mean':>10} {'se':>8}"
    print(header if limits is None else f"{header} {'bound':>10}")
    for i, (T, row) in enumerate(zip(horizons, stats)):
        bound = "" if limits is None else f" {limits[i]:>10.2f}"
        print(f"{T:>6} {row.trials:>7} {row.mean:>10.3f} {row.se:>8.3f}{bound}")
    return 0


def _cmd_verify(args) -> int:
    results = verification.run_suite(args.suite, args.seed)
    for result in results:
        print(result.line())
    passed = sum(result.passed for result in results)
    print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nuolab",
        description="Non-uniform online learning laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ldim", help="dimension of an explicit class file")
    p.add_argument("class_file")
    p.add_argument("--witness", action="store_true",
                   help="also print a maximal shattered tree")
    p.set_defaults(fn=_cmd_ldim)

    p = sub.add_parser("play", help="run one game")
    p.add_argument("--learner", required=True, help="spec file or inline JSON")
    p.add_argument("--nature", required=True, help="spec file or inline JSON")
    p.add_argument("-T", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", help="write the trace as CSV")
    p.set_defaults(fn=_cmd_play)

    p = sub.add_parser("regret", help="Monte-Carlo regret experiment")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=_cmd_regret)

    p = sub.add_parser("verify", help="run the bound-verification suite")
    p.add_argument("--suite", choices=("default", "full"), default="default")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_verify)

    args = parser.parse_args(argv)
    # an error of the input, not of the program, is one line on stderr and
    # exit code 2; any other exception is a bug, and leaves with its traceback
    try:
        return args.fn(args)
    except DomainError as exc:
        message = " ".join(str(exc).split()) or type(exc).__name__
        print(f"nuolab {args.command}: error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
