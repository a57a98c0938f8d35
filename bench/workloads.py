"""The three benchmark workloads: what one unit of work runs and how it is checked.

A workload loads its generated inputs (untimed), then exposes ``units``:
each unit is run by ``run(unit)`` through the public ``rawbench`` API
and counts ``unit.items`` items.  ``check(unit, output)`` returns the
problems found in the unit's outputs; a unit with problems counts all of
its items as failed.  Checks never call the program's own metrics, so a
workload that does not use a layer never touches it.

All program calls go through module attributes (``rawbench.core.read_frame``
rather than an imported name), so the traced run's wrappers see them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import rawbench
import rawbench.budget
import rawbench.calibration
import rawbench.core
import rawbench.denoise
import rawbench.harness
import rawbench.isp
import rawbench.metrics
import rawbench.synth

import inputs

DIGESTS_FILE = Path(__file__).with_name("digests.json")
SIGMA_REL_TOL = 0.05  # calib_synth: fitted read/row sigma vs the estimator's expected value


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def recorded_digests(workload: str, seed: int) -> dict[str, str] | None:
    """Digests recorded for ``workload`` at ``seed``, or None when that seed has none."""
    doc = json.loads(DIGESTS_FILE.read_text(encoding="utf-8"))
    entry = doc.get(workload)
    if entry is None or entry["seed"] != seed:
        return None
    return entry["files"]


def _as_f32(img):
    return replace(img, channels=img.channels.astype(np.float32))


@dataclass(frozen=True)
class Unit:
    name: str
    items: int
    spec: object = None


class Workload:
    """Common loop bookkeeping: digests of each unit must repeat exactly."""

    def __init__(self, work: Path, seed: int):
        self.inputs = work / "inputs"
        self.out = work / "out"
        self.out.mkdir(parents=True, exist_ok=True)
        self.seed = seed
        self.first_digests: dict[str, dict[str, str]] = {}
        self.digests: dict[str, dict[str, str]] = {}

    def _same_as_before(self, unit: Unit, digests: dict[str, str]) -> list[str]:
        self.digests[unit.name] = digests
        first = self.first_digests.setdefault(unit.name, digests)
        return [f"{unit.name}: {f} differs from the first repeat"
                for f in digests if digests[f] != first.get(f)]


# ---------------------------------------------------------------------------


class ScoreFinal(Workload):
    """Organiser run: manifest -> run_benchmark (final phase) -> budget checks."""

    name = "score_final"

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        self.manifest = self.inputs / "manifest.json"
        self.gt_dir = str(self.inputs / "gt")
        self.pred_root = self.inputs / "pred"
        n_items = len(inputs.TEAMS) * len(inputs.PAIRED)
        self.units = [Unit("round", n_items)]
        self.recorded = recorded_digests(self.name, seed)

    def warm_up(self) -> None:
        # the dev-phase crop runs the same code as the final one at a quarter of the cost
        gt = rawbench.core.read_frame(self.inputs / "gt" / "p0.rawb")
        pred = rawbench.core.read_frame(self.pred_root / inputs.TEAMS[0] / "p0.rawb")
        rawbench.metrics.evaluate_pair(pred, gt, "dev")
        rawbench.harness.load_manifest(self.manifest)

    def run(self, unit: Unit, threads: int = 1):
        manifest = rawbench.harness.load_manifest(self.manifest)
        rawbench.harness.run_benchmark(
            manifest, self.pred_root, external_scores_path=self.inputs / "external.csv",
            out_dir=self.out, threads=threads,
        )
        verdicts = {}
        for team in inputs.TEAMS:
            layers, ensemble, shape = rawbench.budget.load_model_spec(
                self.inputs / "specs" / f"{team}.json")
            report = rawbench.budget.build_report(layers, shape, ensemble=ensemble)
            verdicts[team] = rawbench.budget.check_constraints(report).passed
        return verdicts

    def check(self, unit: Unit, verdicts) -> list[str]:
        files = ("scores.csv", "per_image.csv", "ranktable.csv")
        digests = {f: sha256(self.out / f) for f in files}
        problems = self._same_as_before(unit, digests)
        if self.recorded is not None:
            problems += [f"{f}: digest differs from the one recorded for seed {self.seed}"
                         for f in files if digests[f] != self.recorded.get(f)]
        problems += self._check_tables()
        expected = {t: t != inputs.OVER_BUDGET_TEAM for t in inputs.TEAMS}
        if verdicts != expected:
            problems.append(f"budget verdicts {verdicts}, expected {expected}")
        return problems

    def _check_tables(self) -> list[str]:
        problems = []
        with open(self.out / "scores.csv", newline="", encoding="utf-8") as fh:
            scores = {r["team"]: r for r in csv.DictReader(ln for ln in fh if not ln.startswith("#"))}
        if sorted(scores) != sorted(inputs.TEAMS):
            return [f"scores.csv teams {sorted(scores)}"]
        for team, row in scores.items():
            for metric in ("psnr", "ssim", "lpips", "arniqa", "topiq"):
                if not math.isfinite(float(row[metric] or "nan")):
                    problems.append(f"scores.csv: {team} {metric} is {row[metric]!r}")
        if problems:
            return problems
        psnr = {t: float(r["psnr"]) for t, r in scores.items()}
        if not psnr["atlas"] > psnr["borealis"] > psnr["delta"]:
            problems.append(f"PSNR order does not follow the residual noise: {psnr}")
        with open(self.out / "per_image.csv", newline="", encoding="utf-8") as fh:
            n_rows = sum(1 for _ in csv.DictReader(fh))
        if n_rows != self.units[0].items:
            problems.append(f"per_image.csv has {n_rows} rows, expected {self.units[0].items}")
        with open(self.out / "ranktable.csv", newline="", encoding="utf-8") as fh:
            ranks = {r["team"]: r for r in csv.DictReader(fh)}
        positions = {t: int(ranks[t]["pos_perceptual"]) for t in ranks if "pos_perceptual" in ranks[t]}
        if positions != inputs.PERCEPTUAL_POSITIONS:
            problems.append(f"perceptual positions {positions}, designed "
                            f"{inputs.PERCEPTUAL_POSITIONS}")
        if not all(f"pos_{c}" in next(iter(ranks.values()))
                   for c in ("overall", "fidelity", "perceptual")):
            problems.append("ranktable.csv lacks a category")
        return problems


# ---------------------------------------------------------------------------


def _psnr(a: np.ndarray, b: np.ndarray) -> float:
    return float(10.0 * np.log10(1.0 / np.mean((a - b) ** 2)))


class DenoiseRender(Workload):
    """Participant run per scene: the ``denoise`` then ``isp`` subcommands' calls."""

    name = "denoise_render"

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        self.profile = rawbench.calibration.load_profile(self.inputs / "profile.json")
        self.units = [Unit(s[0], 1, s) for s in inputs.SCENES]

    def warm_up(self) -> None:
        # the largest scene, so the allocator has grown to the round's peak
        self.run(max(self.units, key=lambda u: u.spec[1] * u.spec[2]))

    def run(self, unit: Unit):
        name, _, _, iso, dgain, transform, _ = unit.spec
        core = rawbench.core
        frame = core.read_frame(self.inputs / "scenes" / f"{name}_noisy.rawb")
        noisy = core.normalize(core.pack_rggb(frame), clip_hi=1.0)
        params = rawbench.denoise.effective_pg_params(self.profile.params_for(iso), dgain)
        den = rawbench.denoise.denoise_raw(
            noisy, params, rawbench.denoise.DenoiseConfig(transform=transform))
        dn = core.denormalize(den)
        core.write_frame(core.unpack_rggb(_as_f32(dn)), self.out / f"{name}_den.rawb")
        img = core.normalize(core.pack_rggb(core.read_frame(self.out / f"{name}_den.rawb")))
        rgb = rawbench.isp.run_isp(img)
        rawbench.isp.write_ppm16(rgb, self.out / f"{name}.ppm")
        return noisy.channels, den.channels

    def check(self, unit: Unit, output) -> list[str]:
        noisy, den = output
        name = unit.name
        problems = []
        if den.shape != noisy.shape:
            problems.append(f"{name}: output shape {den.shape}, input {noisy.shape}")
        elif not np.all(np.isfinite(den)):
            problems.append(f"{name}: non-finite output values")
        elif den.min() < 0.0 or den.max() > 1.0:
            problems.append(f"{name}: output outside [0, clip_hi]: {den.min()}..{den.max()}")
        else:
            clean = rawbench.core.read_frame(self.inputs / "scenes" / f"{name}_clean.rawb")
            ref = np.stack([clean.data[0::2, 0::2], clean.data[0::2, 1::2],
                            clean.data[1::2, 0::2], clean.data[1::2, 1::2]]).astype(np.float64)
            ref = np.clip((ref - inputs.BLACK) / inputs.SPAN, 0.0, 1.0)
            before, after = _psnr(noisy, ref), _psnr(den, ref)
            if not after > before:
                problems.append(f"{name}: denoised PSNR {after:.3f} dB <= noisy {before:.3f} dB")
            _, ph, pw = noisy.shape
            ppm_size = (self.out / f"{name}.ppm").stat().st_size
            if ppm_size != len(f"P6\n{2 * pw} {2 * ph}\n65535\n") + 2 * ph * 2 * pw * 3 * 2:
                problems.append(f"{name}: PPM has {ppm_size} bytes for a {2 * pw}x{2 * ph} image")
        digests = {f: sha256(self.out / f) for f in (f"{name}_den.rawb", f"{name}.ppm")}
        return problems + self._same_as_before(unit, digests)


# ---------------------------------------------------------------------------


def expected_sigmas(s_read: float, s_row: float) -> tuple[float, float]:
    """What estimate_read_noise should return for generator truth (s_read, s_row).

    Residuals are taken against the mean of N darks, which scales every
    variance by (N-1)/N; rounding to u16 adds 1/12 DN^2 of pixel noise; a
    row mean also carries pixel noise / W; removing the band mean leaves
    (1 - 1/W) of the pixel variance.
    """
    n = inputs.DARKS_PER_ISO
    w = inputs.DARK_SHAPE[1]
    pixel = s_read**2 + 1.0 / 12.0
    shrink = (n - 1) / n
    return math.sqrt(shrink * pixel * (1.0 - 1.0 / w)), math.sqrt(shrink * (s_row**2 + pixel / w))


class CalibSynth(Workload):
    """Dataset preparation: darks -> profile -> save/load -> hybrid pairs -> f32 files."""

    name = "calib_synth"
    PATCH = 256
    PER_IMAGE = 6

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        self.dark_paths = {
            iso: sorted((self.inputs / "darks" / str(iso)).glob("*.rawb"))
            for iso in inputs.CALIB_ISOS
        }
        self.clean_paths = sorted((self.inputs / "clean").glob("*.rawb"))
        self.truth = inputs.dark_truth(seed)
        self.units = [Unit("round", inputs.N_CLEAN * self.PER_IMAGE)]

    def warm_up(self) -> None:
        self.run(self.units[0])

    def run(self, unit: Unit):
        core, cal = rawbench.core, rawbench.calibration
        darks = {iso: [core.read_frame(p) for p in paths] for iso, paths in self.dark_paths.items()}
        profile = cal.build_profile(
            inputs.CAMERA, list(inputs.CALIB_ISOS), darks, provided_gains=inputs.CALIB_GAINS)
        cal.save_profile(profile, self.out / "profile" / "profile.json")
        loaded = cal.load_profile(self.out / "profile" / "profile.json")
        frames = [core.read_frame(p) for p in self.clean_paths]
        sampler = rawbench.synth.BatchConfig(
            iso_choices=inputs.CALIB_ISOS, dgain_range=(10.0, 200.0), mode="hybrid", hybrid_rho=0.5)
        pairs = rawbench.synth.make_pair_batch(
            frames, loaded, sampler, self.PATCH, self.PER_IMAGE, self.seed)
        for k, (noisy, clean) in enumerate(pairs):
            core.write_packed(_as_f32(noisy), self.out / f"pair{k:02d}_noisy.rawb")
            core.write_packed(_as_f32(clean), self.out / f"pair{k:02d}_clean.rawb")
        return {iso: (p.sigma_read, p.sigma_row) for iso, p in profile.iso_params.items()}, len(pairs)

    def fit_errors(self, fitted) -> dict[str, float]:
        """Largest relative error over ISOs of the fitted sigmas."""
        errs = {"sigma_read": 0.0, "sigma_row": 0.0}
        for iso, (s_read, s_row) in fitted.items():
            want = expected_sigmas(*self.truth[iso])
            errs["sigma_read"] = max(errs["sigma_read"], abs(s_read / want[0] - 1.0))
            errs["sigma_row"] = max(errs["sigma_row"], abs(s_row / want[1] - 1.0))
        return errs

    def check(self, unit: Unit, output) -> list[str]:
        fitted, n_pairs = output
        problems = []
        if n_pairs != unit.items:
            problems.append(f"{n_pairs} pairs, expected {unit.items}")
        for kind, err in self.fit_errors(fitted).items():
            if err > SIGMA_REL_TOL:
                problems.append(f"fitted {kind} off by {err:.1%} (tolerance {SIGMA_REL_TOL:.0%})")
        digests = {}
        for k in range(n_pairs):
            for role in ("noisy", "clean"):
                path = self.out / f"pair{k:02d}_{role}.rawb"
                digests[path.name] = sha256(path)
            noisy = rawbench.core.read_packed(self.out / f"pair{k:02d}_noisy.rawb").channels
            if not (np.all(np.isfinite(noisy)) and noisy.min() >= 0.0 and noisy.max() <= 1.0):
                problems.append(f"pair{k:02d}: noisy values outside [0, clip_hi]")
        # every unit repeats make_pair_batch with the same seed: bit-identical
        return problems + self._same_as_before(unit, digests)


WORKLOADS = {w.name: w for w in (ScoreFinal, DenoiseRender, CalibSynth)}
