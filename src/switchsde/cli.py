"""Command-line entry point.

Exit codes: 0 when the pipeline ran and every verdict in its manifest holds
(``simulate`` and ``density`` record none), 1 when it ran but a verdict failed
or the numerics gave up, 2 for configuration or usage errors, including files
that cannot be read or written.  The subcommands and their help lines are
those declared in ``runner.PIPELINES``; ``diagnostics`` decides the verdicts.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import RunConfig, read_json
from .errors import ConfigError, SpecError, SwitchSdeError
from .runner import PIPELINES


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="JSON run configuration; defaults apply if omitted")
    shared.add_argument("--seed", type=int, help="override the master seed")
    shared.add_argument("--out", help="override output.dir")
    shared.add_argument("--workers", type=int, help="override the worker count")

    parser = argparse.ArgumentParser(
        prog="switchsde",
        description="Simulation and verification engine for regime-switching "
        "SDEs driven by subordinated Brownian motion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in PIPELINES.items():
        command = sub.add_parser(name, parents=[shared], help=spec.help, description=spec.help)
        if spec.paths:
            command.add_argument("--paths", type=int, help="override simulation.n_paths")
    return parser


# flag -> (section, key) of the setting it overrides; section None is the top level
OVERRIDES = {
    "seed": (None, "seed"),
    "paths": ("simulation", "n_paths"),
    "out": ("output", "dir"),
    "workers": (None, "workers"),
}


def load_config(args) -> RunConfig:
    """Write the flags into the raw config, so that one parse validates both."""
    raw = read_json(args.config) if args.config else {}
    for flag, (name, key) in OVERRIDES.items():
        value = getattr(args, flag, None)
        if value is None or not isinstance(raw, dict):
            continue  # a non-object root is reported by the parse
        target = raw.setdefault(name, {}) if name else raw
        if isinstance(target, dict):
            target[key] = value
    return RunConfig.from_dict(raw)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    pipeline = PIPELINES[args.command]
    try:
        cfg = load_config(args)
        manifest = pipeline.run(cfg)
    except (ConfigError, SpecError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SwitchSdeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    summary = manifest["summary"]
    ok = all(v["holds"] for v in manifest["verdicts"])
    print(json.dumps({"command": args.command, "ok": ok, "summary": summary}, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
