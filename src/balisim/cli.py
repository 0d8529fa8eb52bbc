"""Command-line surface: key generation, balise programming and
verification, and scenario execution.

Exit codes are a stable scripting contract: 0 success, 1 verification
failure, 2 input error, 3 simulation timeout.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

from . import auth, codec
from .sim import deployment, scenario

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT_ERROR = 2
EXIT_TIMEOUT = 3


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT_ERROR


def _cmd_keygen(args: argparse.Namespace) -> int:
    try:
        keystore = auth.new_keystore(seed=args.seed)
    except ValueError as exc:
        return _fail(str(exc))
    try:
        auth.save_keystore(keystore, args.out)
    except OSError as exc:
        return _fail(f"cannot write keystore: {exc}")
    print(args.out)
    return EXIT_OK


def _cmd_program(args: argparse.Namespace) -> int:
    fmt = codec.FORMATS[args.format]
    try:
        spec = deployment.BaliseSpec(args.id, args.loc, args.kind)
        keystore = None
        if args.mode == deployment.AUTH_AUTHENTICATED:
            if args.keystore is None:
                return _fail("authenticated mode requires --keystore")
            keystore = auth.load_keystore(args.keystore)
        t = deployment.program_telegram(spec, args.mode, keystore, fmt)
        deployment.save_telegram(args.out, t, fmt)
    except (codec.CodecError, ValueError, OSError) as exc:
        return _fail(str(exc))
    print(args.out)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    try:
        keystore = auth.load_keystore(args.keystore)
        keystore.keys_for(args.id)  # ValueError for an id out of range
        fmt, t = deployment.load_telegram(args.telegram)
    except (OSError, ValueError) as exc:
        return _fail(str(exc))

    # Read as a run reads a crossing, on a track of this one balise.
    aligned = scenario.align_codeword(t, fmt)
    fields = scenario.read_telegram(aligned, deployment.AUTH_AUTHENTICATED,
                                    keystore, [args.id], fmt)
    report = {
        "decode": "fail" if aligned is None else "ok",
        "auth": "fail" if fields is None else "pass",
        "fields": None if fields is None else dict(
            zip(("id", "kind", "loc_m"), fields)),
    }
    print(json.dumps(report))
    return EXIT_VERIFY_FAIL if fields is None else EXIT_OK


def _run_one(config_path: str, out_dir: str,
             csv_name: str, summary_name: str) -> tuple[float | None, int, str]:
    """Run one scenario; returns (stop_error, exit_code, message)."""
    try:
        cfg = scenario.load_config(config_path)
        result = scenario.run_scenario(cfg)
    except scenario.SimTimeout as exc:
        return None, EXIT_TIMEOUT, str(exc)
    except (scenario.ConfigError, OSError, ValueError) as exc:
        return None, EXIT_INPUT_ERROR, str(exc)
    try:
        os.makedirs(out_dir, exist_ok=True)
        scenario.write_trajectory_csv(result, os.path.join(out_dir, csv_name))
        scenario.write_summary(result, os.path.join(out_dir, summary_name))
    except OSError as exc:
        return None, EXIT_INPUT_ERROR, f"cannot write output: {exc}"
    return result.stop_error, EXIT_OK, ""


def _cmd_simulate(args: argparse.Namespace) -> int:
    # With both, the batch would run and the config be dropped unread.
    if (args.batch is None) == (args.config is None):
        return _fail("give one of a config path and --batch, not both")
    if os.path.normpath(args.csv) == os.path.normpath(args.summary):
        return _fail("--csv and --summary name the same file")

    if args.batch is None:
        err, code, message = _run_one(
            args.config, args.out, args.csv, args.summary)
        if code != EXIT_OK:
            print(f"error: {message}", file=sys.stderr)
            return code
        print(f"{err:.6f}")
        return EXIT_OK

    # Each scenario writes its own pair of files; a name that leaves the
    # scenario's directory would have every scenario write the same file.
    for name in (args.csv, args.summary):
        norm = os.path.normpath(name)
        if os.path.isabs(norm) or norm.split(os.sep)[0] == os.pardir:
            return _fail(f"with --batch, {name} must be a path inside "
                         "each scenario's directory")
    configs = sorted(glob.glob(os.path.join(args.batch, "*.json")))
    if not configs:
        return _fail(f"no scenario configs in {args.batch}")
    worst = EXIT_OK
    for path in configs:
        name = os.path.splitext(os.path.basename(path))[0]
        err, code, message = _run_one(path, os.path.join(args.out, name),
                                      args.csv, args.summary)
        if code == EXIT_OK:
            print(f"{name}\t{err:.6f}")
        else:
            print(f"{name}\terror: {message}", file=sys.stderr)
            worst = max(worst, code)
    return worst


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="balisim",
        description="Balise telegram codec, authentication, and stop-control "
                    "simulation tools.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a keystore file")
    p.add_argument("--out", required=True, help="keystore output path")
    p.add_argument("--seed", type=int, default=None,
                   help="deterministic test seed (omit for a random key)")
    p.set_defaults(func=_cmd_keygen)

    p = sub.add_parser("program", help="encode a telegram file for a balise")
    p.add_argument("--id", type=int, required=True, help="balise id (14-bit)")
    p.add_argument("--kind", choices=[deployment.KIND_FIXED,
                                      deployment.KIND_CONTROLLED],
                   default=deployment.KIND_FIXED)
    p.add_argument("--loc", type=float, required=True,
                   help="reported location in meters")
    p.add_argument("--format", choices=sorted(codec.FORMATS),
                   default="long")
    p.add_argument("--mode", choices=[deployment.AUTH_LEGACY,
                                      deployment.AUTH_AUTHENTICATED],
                   default=deployment.AUTH_AUTHENTICATED)
    p.add_argument("--keystore", help="keystore path (authenticated mode)")
    p.add_argument("--out", required=True, help="telegram output path")
    p.set_defaults(func=_cmd_program)

    p = sub.add_parser("verify", help="decode and authenticate a telegram file")
    p.add_argument("telegram", help="telegram file to check")
    p.add_argument("--keystore", required=True)
    p.add_argument("--id", type=int, required=True,
                   help="claimed balise id to verify against")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("simulate", help="run stop-control scenarios")
    p.add_argument("config", nargs="?", help="scenario config JSON")
    p.add_argument("--batch", help="directory of scenario configs to run")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--csv", default="trajectory.csv",
                   help="trajectory file name (in each scenario's directory "
                        "with --batch)")
    p.add_argument("--summary", default="summary.json",
                   help="summary file name (in each scenario's directory "
                        "with --batch)")
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
