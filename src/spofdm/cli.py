"""Command line front end for the experiment harness."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import harness
from .avc import avc_capacity
from .keystream import SecretKey, phase_plans


def _add_common(parser: argparse.ArgumentParser, trials: bool = True) -> None:
    parser.add_argument("--scenario", type=Path, default=None,
                        help="scenario JSON file (default: built-in preset)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario's master seed")
    if trials:
        parser.add_argument("--trials", type=int, default=None,
                            help="override the scenario's trial count")
    parser.add_argument("--sjr-db", type=float, default=None,
                        help="override the signal-to-jamming ratio in dB")
    parser.add_argument("--out-dir", type=Path, default=Path("results"),
                        help="directory for CSV/text outputs")


def _load(args) -> harness.Scenario:
    """The scenario with the command line's overrides; checks ``--out-dir``
    too, so a bad path fails before the run rather than after it."""
    try:
        scenario = (harness.load_scenario(args.scenario) if args.scenario
                    else harness.table1_scenario())
    except OSError as exc:  # missing, a directory, unreadable
        raise ValueError(f"{args.scenario}: {exc.strerror}") from None
    # the nearest existing ancestor ("." or "/" at the latest)
    found = next(p for p in (args.out_dir, *args.out_dir.parents) if p.exists())
    if not found.is_dir():
        raise ValueError(f"--out-dir {args.out_dir}: {found} is not a directory")
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if getattr(args, "trials", None) is not None:
        overrides["trials"] = args.trials
    if args.sjr_db is not None:
        overrides["sjr_db"] = args.sjr_db
    return replace(scenario, **overrides) if overrides else scenario


def _emit(report: harness.ExperimentReport, out_dir: Path) -> int:
    paths = harness.emit_report(report, out_dir)
    print(report.summary_text(), end="")
    print(f"wrote {paths['records']}")
    return 0


def _cmd_sync(args) -> int:
    report = harness.run_sync_experiment(_load(args))
    _emit(report, args.out_dir)
    errors = [r["error"] for r in report.records]
    if all(errors):
        print(f"spofdm: error: all trials failed: {errors[0]}", file=sys.stderr)
    return int(all(errors))


def _cmd_ber(args) -> int:
    report = harness.run_ber_experiment(_load(args), args.rates, args.snrs_db)
    return _emit(report, args.out_dir)


def _cmd_surface(args) -> int:
    scenario = _load(args)
    result = harness.correlation_surface(scenario, n_trials=scenario.trials)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    mode = "on" if scenario.psk_order > 1 else "off"
    path = args.out_dir / f"surface_precoding_{mode}.csv"
    path.write_text(harness.surface_csv(result))
    print(f"signal offset: {result['signal_offset_samples']} samples, "
          f"jammer offset: {result['jammer_offset_samples']} samples")
    print(f"wrote {path}")
    return 0


def _cmd_capacity(args) -> int:
    cap = avc_capacity(args.signal_power, args.jamming_power, args.noise_power)
    print(f"{cap:.12f}")
    return 0


def _cmd_keystream_selftest(args) -> int:
    # AESAVS count-0 known answers (KeySbox AES-128 and AES-256, VarTxt
    # AES-128) whose plaintext is the counter block epoch | 0 | 0: at N_c = 15
    # and M = 256 a phase_plans row is that AES block, byte by byte
    for key, epoch, ciphertext in (
            ("10a58869d74be5a374cf867cfb473859", 0,
             "6d251e6944b051e04eaa6fb4dbf78465"),
            ("c47b0294dbbbee0fec4757f22ffeee3587ca4730c3d33b691df38bab076bc558",
             0, "46f2fb342d6f0ab477476fc501242c5f"),
            (16 * "00", 1 << 31, "3ad78e726c1ec02b7ebfe92b23d9ec34")):
        row = phase_plans(SecretKey.from_hex(key), epoch, 0, 1, 15, 256)[0]
        if row.tolist() != list(bytes.fromhex(ciphertext)):
            print(f"FAIL: keystream of key {key} at epoch {epoch} is not "
                  f"the AES known answer {ciphertext}")
            return 1
    print("ok: keystream matches 3 AES known answers")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spofdm",
        description="Securely precoded OFDM simulation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sync", help="synchronization error CDF experiment")
    _add_common(p)
    p.set_defaults(func=_cmd_sync)

    p = sub.add_parser("ber", help="coded BER sweep under disguised jamming")
    _add_common(p, trials=False)  # its sample size is the codeword budget
    p.add_argument("--rates", nargs="+", default=["1_4", "1_3", "1_2"],
                   help="code rate labels, e.g. 1_4 1_3 1_2")
    p.add_argument("--snrs-db", nargs="+", type=float, default=[9.0, 12.0, 15.0])
    p.set_defaults(func=_cmd_ber)

    p = sub.add_parser("surface", help="pre-FFT correlation surface")
    _add_common(p)
    p.set_defaults(func=_cmd_surface)

    p = sub.add_parser("capacity", help="closed-form jamming channel capacity")
    p.add_argument("--signal-power", type=float, default=1.0)
    p.add_argument("--jamming-power", type=float, default=1.0)
    p.add_argument("--noise-power", type=float, default=1.0)
    p.set_defaults(func=_cmd_capacity)

    p = sub.add_parser("keystream-selftest",
                       help="check the keystream against AES known answers")
    p.set_defaults(func=_cmd_keystream_selftest)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # bad input: scenario, override, rate or key
        print(f"spofdm: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
