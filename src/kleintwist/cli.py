"""Command line entry point.

`kleintwist verify` runs the registered checks and can write the
results as JSON and as a Markdown report.  Exit code 0 means every
selected check passed, 1 that at least one failed or errored, 2 a usage
problem: an unknown or empty check selection, a report path that cannot
be written (refused before any check runs), a presentation name that is
unknown or past the solver's 5x5 bound.  Reports are rendered
deterministically; pass --zero-durations to blank the timing column so
two runs compare byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys

from .checks import (MAX_N_CAP, MAX_N_DEFAULT, REGISTRY, RunConfig,
                     all_check_ids, run)
from .errors import InfiniteCharacterSpace, KleintwistError, UnknownCheck
from .hopf import character_group, characters, function_algebra, group_algebra
from .perm import isomorphism_type, symmetric_group
from .present import character_group_of, parse_presentation, solve_characters


def render_json(results, zero_durations: bool = False) -> str:
    payload = [r.to_dict(zero_durations) for r in results]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _claim(check_id: str) -> str:
    doc = REGISTRY[check_id].__doc__ or ""
    return " ".join(doc.split())


def render_markdown(results, zero_durations: bool = False,
                    max_n: int = MAX_N_DEFAULT) -> str:
    passed = sum(1 for r in results if r.status == "pass")
    failed = sum(1 for r in results if r.status == "fail")
    errored = sum(1 for r in results if r.status == "error")
    lines = [
        "# Twisted symmetry verification",
        "",
        f"- checks run: {len(results)}",
        f"- passed: {passed}, failed: {failed}, errors: {errored}",
        f"- sequence length bound (max_n): {max_n}",
        "",
        "| check | status | duration (ms) |",
        "| --- | --- | --- |",
    ]
    for r in results:
        dur = 0.0 if zero_durations else r.duration_ms
        lines.append(f"| {r.check_id} | {r.status} | {dur} |")
    lines.append("")
    for r in results:
        lines.append(f"## {r.check_id}")
        lines.append("")
        lines.append(f"Status: **{r.status}**")
        lines.append("")
        lines.append(f"Claim: {_claim(r.check_id)}")
        lines.append("")
        if r.details:
            lines.append(f"Details: {r.details}")
            lines.append("")
        for k, v in sorted(r.metrics.items()):
            lines.append(f"- {k}: {v}")
        for k, v in sorted(r.labels.items()):
            lines.append(f"- {k}: {v}")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kleintwist",
        description="exact verification of twisted symmetry computations")
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run verification checks")
    v.add_argument("--checks", default=None,
                   help="comma separated check ids (default: all)")
    v.add_argument("--max-n", type=int, default=MAX_N_DEFAULT,
                   help=f"sequence length bound, at most {MAX_N_CAP}")
    v.add_argument("--json-out", default=None, help="write JSON results here")
    v.add_argument("--md-out", default=None, help="write a Markdown report here")
    v.add_argument("--zero-durations", action="store_true",
                   help="blank timings for byte-stable reports")

    sub.add_parser("list-checks", help="print the registered check ids")

    c = sub.add_parser("characters", help="solve a presentation's characters")
    c.add_argument("name", help="presentation name, e.g. o2minus, snplus:4, incseq:2:4")

    d = sub.add_parser("dump", help="print the structure tensors of a built algebra")
    d.add_argument("which", choices=("qs4", "cs4", "s4tau"))

    return parser


def _cmd_verify(args) -> int:
    checks = None if args.checks is None else tuple(
        s for s in map(str.strip, args.checks.split(",")) if s)
    try:
        cfg = RunConfig(checks=checks, max_n=args.max_n,
                        json_out=args.json_out, md_out=args.md_out)
    except (UnknownCheck, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    for path in filter(None, (cfg.json_out, cfg.md_out)):
        try:        # before any check runs, so a long run cannot end unwritten
            with open(path, "a"):
                pass
        except OSError as exc:
            print(f"usage error: cannot write a report to {path}: {exc.strerror}",
                  file=sys.stderr)
            return 2
    results = run(cfg)
    for r in results:
        dur = "0.0" if args.zero_durations else f"{r.duration_ms}"
        print(f"[{r.status}] {r.check_id} ({dur} ms) {r.details}")
    if cfg.json_out:
        with open(cfg.json_out, "w") as fh:
            fh.write(render_json(results, args.zero_durations))
    if cfg.md_out:
        with open(cfg.md_out, "w") as fh:
            fh.write(render_markdown(results, args.zero_durations, cfg.max_n))
    return 0 if all(r.status == "pass" for r in results) else 1


def _cmd_characters(args) -> int:
    try:
        spec = parse_presentation(args.name)
        sols = solve_characters(spec)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except InfiniteCharacterSpace as exc:
        print(f"refused: {exc}")
        return 1
    print(f"{spec.name}: {len(sols)} character matrices")
    try:
        g = character_group_of(spec, sols)
        label = isomorphism_type(g).name if g.order <= 24 else "(order above 24)"
        print(f"character group: order {g.order}, type {label}")
    except ValueError:
        print("character group: undefined for rectangular shapes")
    return 0


def _cmd_dump(args) -> int:
    if args.which == "qs4":
        H = group_algebra(symmetric_group(4))
    elif args.which == "cs4":
        H = function_algebra(symmetric_group(4))
    else:
        from .cocycle import build_s4tau
        H = build_s4tau().algebra
    print(H.dump())
    if args.which == "s4tau":
        chars = characters(H)
        g = character_group(H, chars)
        print(f"characters: {len(chars)}, group order {g.order}, "
              f"type {isomorphism_type(g).name}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "list-checks":
            for name in all_check_ids():
                print(name)
            return 0
        if args.command == "characters":
            return _cmd_characters(args)
        if args.command == "dump":
            return _cmd_dump(args)
    except KleintwistError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
