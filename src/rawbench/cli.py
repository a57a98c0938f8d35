"""Command-line front end: calibrate, synth, denoise, isp, eval, rank, budget, bench.

Exit codes: 0 success, 1 budget-constraint failure, 2 validation error,
3 missing data.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import budget as budget_mod
from . import calibration, core, harness, isp, ranking, synth
from .denoise import _TRANSFORMS, DenoiseConfig, denoise_raw, effective_pg_params
from .errors import DataError, MissingDataError, RawBenchError
from .harness import _csv_value, _read_csv


def _values(form: str, sep: str, count: int | None, convert):
    """An argparse ``type``: ``sep``-separated ``convert`` values as a tuple,
    exactly ``count`` of them unless ``count`` is None.  A bad value makes
    argparse exit 2 with an error naming the flag and ``form``."""

    def parse(text: str) -> tuple:
        try:
            values = tuple(convert(v) for v in text.split(sep))
            if count is None or len(values) == count:
                return values
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}")

    return parse


def _threads(text: str) -> int:
    """An argparse ``type`` for --threads: an integer of at least 1."""
    try:
        return core._check_int("threads", int(text), minimum=1, error=ValueError)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}") from None


def _iso_gain(text: str) -> tuple[int, float]:
    iso, gain = text.split("=")
    return int(iso), float(gain)


_WB_GAINS = _values("'gray-world' or r,g,b gains", ",", 3, float)


def _wb(text: str) -> tuple[str, str | tuple[float, ...]]:
    """--wb as typed (the RAWB header records it) and as an IspConfig.wb."""
    return text, "gray_world" if text == "gray-world" else _WB_GAINS(text)


def _cmd_calibrate(args) -> int:
    darks_root = Path(args.darks)
    iso_dirs = sorted(p for p in darks_root.iterdir() if p.is_dir())
    if not iso_dirs:
        raise MissingDataError(f"{darks_root}: expected one subdirectory per ISO")
    darks_by_iso = {}
    for iso_dir in iso_dirs:
        # a plain whole number only: int() also reads "0800" and "+800" as
        # 800, and two such directories would silently replace each other
        try:
            iso = int(iso_dir.name)
        except ValueError:
            iso = None
        if iso is None or str(iso) != iso_dir.name:
            raise ValueError(f"{iso_dir}: subdirectory name is not an integer ISO "
                             f"in plain digits, such as 800")
        core._check_iso(f"{iso_dir}: ISO", iso)
        # an empty ISO directory would drop its ISO, and its --gains entry, silently
        paths = sorted(iso_dir.glob("*.rawb"))
        if not paths:
            raise MissingDataError(f"{iso_dir}: no .rawb dark frames in this ISO subdirectory")
        darks_by_iso[iso] = [core.read_frame(p) for p in paths]
    ptc = None
    if args.ptc_csv:
        ptc = {}
        for where, row in _read_csv(args.ptc_csv, ("iso", "mean", "variance")):
            ptc.setdefault(_csv_value(where, row, "iso", int), []).append(
                (_csv_value(where, row, "mean", float), _csv_value(where, row, "variance", float))
            )
    profile = calibration.build_profile(
        camera_id=args.camera_id or next(iter(darks_by_iso.values()))[0].camera_id,
        isos=sorted(darks_by_iso),
        darks_by_iso=darks_by_iso,
        ptc_points_by_iso=ptc,
        provided_gains=dict(args.gains) if args.gains else None,
        roi=core.Roi(*args.roi) if args.roi else None,
        band_axis=args.band_axis,
    )
    calibration.save_profile(profile, args.out)
    print(f"wrote profile for {len(profile.iso_params)} ISO settings to {args.out}")
    return 0


def _cmd_synth(args) -> int:
    sampler = synth.BatchConfig(
        iso_choices=args.iso_set,
        dgain_choices=args.dgain_set,
        dgain_range=None if args.dgain_set else args.dgain_range,
        mode=args.mode,
        hybrid_rho=args.rho,
        clip_hi=args.clip_hi,
    )
    profile = calibration.load_profile(args.profile)
    clean_paths = sorted(Path(args.clean).glob("*.rawb"))
    if not clean_paths:
        raise MissingDataError(f"{args.clean}: no .rawb clean frames found")
    frames = [core.read_frame(p) for p in clean_paths]
    pairs = synth.make_pair_batch(
        frames, profile, sampler, args.patch, args.per_image, args.seed
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    per_image = args.per_image
    for idx, (noisy, clean) in enumerate(pairs):
        stem = f"{clean_paths[idx // per_image].stem}_p{idx % per_image:02d}"
        core.write_packed(_as_f32(noisy), out_dir / f"{stem}_noisy.rawb")
        core.write_packed(_as_f32(clean), out_dir / f"{stem}_clean.rawb")
    print(f"wrote {len(pairs)} noisy/clean pairs to {out_dir}")
    return 0


def _as_f32(img: core.PackedImage) -> core.PackedImage:
    return replace(img, channels=img.channels.astype(np.float32))


def _cmd_denoise(args) -> int:
    cfg = DenoiseConfig(
        transform=args.transform,
        threshold_mult=args.threshold,
        sigma_dn=args.sigma_dn,
    )
    profile = calibration.load_profile(args.profile)
    frame = core.read_frame(args.infile)
    iso = frame.iso if args.iso is None else args.iso
    # the metadata-mismatch rule of evaluate_pair: a warning, not an error,
    # since a camera-agnostic denoiser may use another camera's profile
    if profile.camera_id != frame.camera_id or iso != frame.iso:
        warnings.warn(f"metadata mismatch: frame {frame.camera_id}/ISO{frame.iso} "
                      f"vs profile {profile.camera_id}/ISO{iso}")
    noisy = core.normalize(frame, clip_hi=args.clip_hi)
    params = effective_pg_params(profile.params_for(iso), args.dgain)
    den = denoise_raw(noisy, params, cfg)
    core.write_frame(core.unpack_rggb(_as_f32(core.denormalize(den))), args.out)
    print(f"denoised {args.infile} -> {args.out} (transform={args.transform})")
    return 0


def _cmd_isp(args) -> int:
    wb_text, wb = args.wb
    cfg = isp.IspConfig(wb=wb, gamma=args.gamma)
    img = core._read_image(args.infile, "mosaic", "rggb")
    if isinstance(img, core.RawFrame) or img.space != core.SPACE_NORMALIZED:
        img = core.normalize(img)
    rgb = isp.run_isp(img, cfg)
    out = Path(args.out)
    # the ISP applies no color matrix; the header records it as "identity"
    meta = {"isp": {"wb": wb_text, "gamma": args.gamma, "ccm": "identity"}}
    if out.suffix.lower() == ".ppm":
        isp.write_ppm16(rgb, out)
    else:
        core.write_rgb(rgb, out, extra=meta)
    print(f"rendered {args.infile} -> {out} ({rgb.shape[1]}x{rgb.shape[0]})")
    return 0


def _cmd_eval(args) -> int:
    pred_dir, gt_dir = Path(args.pred), Path(args.gt)
    pred_paths = sorted(pred_dir.glob("*.rawb"))
    if not pred_paths:
        raise MissingDataError(f"{pred_dir}: no predictions found")
    results = harness.score_pairs([(p.name, p, gt_dir / p.name) for p in pred_paths], args.phase)
    # dgain is a manifest-level attribute; directory mode leaves it blank
    rows = [(p.stem, camera, iso, "", res) for p, (camera, iso, res) in zip(pred_paths, results)]
    harness.write_per_image(args.out, ("image_id",), rows)
    print(f"evaluated {len(rows)} pairs -> {args.out}")
    return 0


def _cmd_rank(args) -> int:
    records, teams = [], set()
    for where, row in _read_csv(args.scores, ("team",)):
        if row["team"] in teams:
            raise DataError(f"{where}: duplicate team {row['team']!r}")
        teams.add(row["team"])
        kwargs = {
            m: _csv_value(where, row, m, float) if row.get(m) not in (None, "") else None
            for m in ranking.ALL_METRICS
        }
        records.append(ranking.MetricRecord(team=row["team"], **kwargs))
    if not records:
        raise DataError(f"{args.scores}: no team rows after the header")
    table = ranking.final_table(records)
    harness.write_ranktable(table, args.out)
    print(f"ranked {len(records)} teams over {list(table.positions)} -> {args.out}")
    return 0


def _cmd_budget(args) -> int:
    layers, ensemble, input_shape = budget_mod.load_model_spec(args.model)
    report = budget_mod.build_report(layers, args.input or input_shape, ensemble=ensemble)
    result = budget_mod.check_constraints(report)
    print(f"params: {report.total_params:,}  (limit {budget_mod.MAX_PARAMS:,})")
    print(
        f"macs:   {report.total_macs:,}  ({report.total_macs / 1e9:.2f} GMacs, "
        f"limit < {budget_mod.MAX_MACS / 1e9:.0f} G)"
    )
    if result.passed:
        print("constraints: PASS")
        return 0
    for reason in result.reasons:
        print(f"constraints: FAIL - {reason}")
    return 1


def _cmd_bench(args) -> int:
    manifest = harness.load_manifest(args.manifest)
    scores_path, rank_path = harness.run_benchmark(
        manifest,
        args.pred_root,
        external_scores_path=args.external,
        out_dir=args.out_dir,
        threads=args.threads,
    )
    print(f"wrote {scores_path} and {rank_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rawbench")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=argparse.ArgumentParser)

    p = sub.add_parser("calibrate", help="build a sensor profile from dark frames")
    p.add_argument("--darks", required=True, help="directory with one <iso>/ subdir of .rawb darks")
    p.add_argument("--camera-id", default="")
    p.add_argument("--out", required=True)
    p.add_argument("--roi", type=_values("x0,y0,w,h", ",", 4, int), help="x0,y0,w,h (even values)")
    p.add_argument("--gains", type=_values("iso=gain,...", ",", None, _iso_gain),
                   help="provided gains, e.g. 800=0.8,1600=1.6")
    p.add_argument("--ptc-csv", default=None, help="CSV iso,mean,variance for gain fitting")
    p.add_argument("--band-axis", choices=calibration._BAND_AXES, default="row")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("synth", help="synthesize noisy/clean training pairs")
    p.add_argument("--profile", required=True)
    p.add_argument("--clean", required=True, help="directory of clean mosaic .rawb frames")
    p.add_argument("--out", required=True)
    p.add_argument("--iso-set", type=_values("iso,iso,...", ",", None, int),
                   default="800,1600,3200")
    p.add_argument("--dgain-range", type=_values("lo:hi", ":", 2, float), default="10:200",
                   help="lo:hi continuous range")
    p.add_argument("--dgain-set", type=_values("dgain,dgain,...", ",", None, float),
                   help="discrete presets, e.g. 100,200")
    p.add_argument("--mode", choices=synth._MODES, default="hybrid")
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--patch", type=int, default=512)
    p.add_argument("--per-image", type=int, default=8)
    p.add_argument("--clip-hi", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0, help="master RNG seed")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("denoise", help="classical VST + sliding-DCT denoiser")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--iso", type=int, default=None,
                   help="profile ISO to denoise with (default: the frame's)")
    p.add_argument("--dgain", type=float, default=1.0)
    p.add_argument("--transform", choices=_TRANSFORMS, default="gat")
    p.add_argument("--sigma-dn", type=float, default=None, help="DN sigma for transform=none")
    p.add_argument("--threshold", type=float, default=3.0)
    p.add_argument("--out", required=True)
    p.add_argument("--clip-hi", type=float, default=1.0)
    p.set_defaults(func=_cmd_denoise)

    p = sub.add_parser("isp", help="render RAW to sRGB (PPM or RAWB rgb)")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--wb", type=_wb, default="gray-world", help="'gray-world' or r,g,b gains")
    p.add_argument("--gamma", choices=isp._GAMMAS, default="srgb")
    p.set_defaults(func=_cmd_isp)

    p = sub.add_parser("eval", help="PSNR/SSIM over prediction/ground-truth directories")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--phase", choices=harness._PHASES, default="dev")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("rank", help="challenge ranking from a wide scores CSV")
    p.add_argument("--scores", required=True, help="CSV: team,psnr,ssim,lpips,arniqa,topiq")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("budget", help="parameter/MAC accounting for a model JSON")
    p.add_argument("--model", required=True)
    p.add_argument("--input", type=_values("n,c,h,w", ",", 4, int),
                   help="override input shape, e.g. 1,4,512,512")
    p.set_defaults(func=_cmd_budget)

    p = sub.add_parser("bench", help="full benchmark: evaluate, merge externals, rank")
    p.add_argument("--manifest", required=True)
    p.add_argument("--pred-root", required=True)
    p.add_argument("--external", default=None, help="team,metric,value CSV")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--threads", type=_threads, default=1, help="most ground truths scored at once")
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MissingDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (RawBenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
