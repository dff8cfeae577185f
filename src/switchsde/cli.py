"""Command-line entry point.

Exit codes: 0 when the pipeline ran and its verification verdict (if any) is
positive, 1 when it ran but a check came out negative or the numerics gave
up, 2 for configuration or usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import RunConfig, read_json
from .errors import ConfigError, SpecError, SwitchSdeError
from .runner import PIPELINES

_VERDICTS = {
    "flows": lambda s: s["within_defect_tolerance"] and s["within_exp_bound"],
    "hormander": lambda s: s["verdict"] == "holds",
    "tails": lambda s: s["decaying"],
    "decompose-check": lambda s: s["ks_pvalue"] >= 0.01 and s["h3_verdict"] == "holds",
    "norris": lambda s: s["nonincreasing"],
    "gradrep": lambda s: s["passes"],
}


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
    descriptions = {
        "simulate": "sample coupled state/regime paths and write them as CSV",
        "flows": "evolve the forward and inverse flows and report defect bounds",
        "hormander": "evaluate the bracket-span certificate over a state ball",
        "tails": "tail curve of the smallest reduced-covariance eigenvalue",
        "decompose-check": "verify the large-jump split and the small-jump scaling probe",
        "norris": "joint probability curve on a frozen-regime window",
        "gradrep": "residual of the first-derivative transfer identity",
        "density": "kernel density of one terminal state component",
    }
    for name, desc in descriptions.items():
        command = sub.add_parser(name, parents=[shared], help=desc, description=desc)
        if name != "hormander":  # hormander samples hormander.n_samples points, not paths
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
    try:
        cfg = load_config(args)
        manifest = PIPELINES[args.command](cfg)
    except (ConfigError, SpecError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SwitchSdeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    summary = manifest["summary"]
    ok = _VERDICTS.get(args.command, lambda s: True)(summary)
    print(json.dumps({"command": args.command, "ok": ok, "summary": summary}, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
