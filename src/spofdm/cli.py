"""Command line front end for the experiment harness."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import harness
from .avc import avc_capacity
from .keystream import SecretKey, aes_encrypt_block


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", type=Path, default=None,
                        help="scenario JSON file (default: built-in preset)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario's master seed")
    parser.add_argument("--trials", type=int, default=None,
                        help="override the scenario's trial count")
    parser.add_argument("--sjr-db", type=float, default=None,
                        help="override the signal-to-jamming ratio in dB")
    parser.add_argument("--out-dir", type=Path, default=Path("results"),
                        help="directory for CSV/text outputs")


def _load(args) -> harness.Scenario:
    scenario = (harness.load_scenario(args.scenario) if args.scenario
                else harness.table1_scenario())
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.trials is not None:
        overrides["trials"] = args.trials
    if getattr(args, "sjr_db", None) is not None:
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
    report = harness.run_ber_experiment(
        _load(args), args.rates, args.snrs_db,
        precoding=args.precoding == "on")
    return _emit(report, args.out_dir)


def _cmd_surface(args) -> int:
    scenario = _load(args)
    result = harness.correlation_surface(
        scenario, precoding=args.precoding == "on", n_trials=args.surface_trials)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"surface_precoding_{args.precoding}.csv"
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
    # FIPS-197 appendix known-answer vector
    key = SecretKey.from_hex("000102030405060708090a0b0c0d0e0f")
    pt = bytes.fromhex("00112233445566778899aabbccddeeff")
    expect = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
    got = aes_encrypt_block(key, pt)
    if got != expect:
        print(f"FAIL: AES known-answer mismatch: {got.hex()}")
        return 1
    print("ok: AES known-answer test passed")
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
    _add_common(p)
    p.add_argument("--precoding", choices=("on", "off"), default="on")
    p.add_argument("--rates", nargs="+", default=["1_4", "1_3", "1_2"],
                   help="code rate labels, e.g. 1_4 1_3 1_2")
    p.add_argument("--snrs-db", nargs="+", type=float, default=[9.0, 12.0, 15.0])
    p.set_defaults(func=_cmd_ber)

    p = sub.add_parser("surface", help="pre-FFT correlation surface")
    _add_common(p)
    p.add_argument("--precoding", choices=("on", "off"), default="on")
    p.add_argument("--surface-trials", type=int, default=10)
    p.set_defaults(func=_cmd_surface)

    p = sub.add_parser("capacity", help="closed-form jamming channel capacity")
    p.add_argument("--signal-power", type=float, default=1.0)
    p.add_argument("--jamming-power", type=float, default=1.0)
    p.add_argument("--noise-power", type=float, default=1.0)
    p.set_defaults(func=_cmd_capacity)

    p = sub.add_parser("keystream-selftest",
                       help="AES known-answer self test")
    p.set_defaults(func=_cmd_keystream_selftest)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # bad input: scenario, override, rate or key
        print(f"spofdm: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
