"""Seeded insertion campaigns: vision-only vs contact-refined, metrics out.

Each trial is set up by trial_setup, which `keycontact refine` shares, and
judged by Scene.insertion_verdict. Each (profile, noise) cell is run and
summarised in one pass, and the CSV columns are the TrialResult fields, so
a new column or arm extends these three places only.

Artifacts are deterministic per configuration + seed list: a CSV with one
row per trial and a JSON summary with per-cell aggregates. Wall time is
reported on the log stream only, never in the artifacts, so reruns stay
byte-identical.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from ..errors import ConfigError, DegenerateInputError, RefinementDivergence
from ..refiner import NoiseConfig, RefinementConfig, run_refinement
from ..serialize import canonical_json
from .scenes import INSERT_MARGIN, PROFILES, Scene, SceneNoise, make_peg_hole_scene

__all__ = ["CampaignConfig", "TrialResult", "run_campaign", "trial_setup", "wilson_interval", "write_campaign_outputs"]

_FMT = "{:.10g}"
Z95 = 1.959963984540054  # two-sided 95% standard normal quantile


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval of a binomial success rate.

    Unlike the normal-approximation interval it stays inside [0, 1] and
    keeps a nonzero width at 0/n and n/n, the rates small cells produce;
    there its bound at 0 or 1 is exact.
    """
    if trials < 1 or not 0 <= successes <= trials:
        raise DegenerateInputError(f"need 0 <= successes <= trials and trials >= 1, got {successes}/{trials}")
    p = successes / trials
    z2n = Z95 * Z95 / trials
    center = (p + 0.5 * z2n) / (1.0 + z2n)
    half = Z95 / (1.0 + z2n) * np.sqrt(p * (1.0 - p) / trials + 0.25 * z2n / trials)
    lo = 0.0 if successes == 0 else float(center - half)
    hi = 1.0 if successes == trials else float(center + half)
    return lo, hi


@dataclass(frozen=True)
class CampaignConfig:
    profiles: tuple[str, ...] = ("round", "hexagon")
    clearance: float = 0.002
    depth: float = 0.006
    noise_grid: tuple[tuple[float, float], ...] = ((0.005, np.deg2rad(5.0)),)
    trials: int = 100  # per (profile, noise) cell
    n_contacts: int = 6
    selection: str = "ig"  # "ig" | "random"
    particles: int = 500
    d_th: float = 0.002
    base_seed: int = 0

    def validate(self) -> None:
        fails = {}
        for p in self.profiles:
            if p not in PROFILES:
                fails[f"profiles[{p}]"] = f"unknown profile (choose from {PROFILES})"
        if not self.clearance >= 0:
            fails["clearance"] = "must be >= 0"
        if not self.depth > INSERT_MARGIN:
            fails["depth"] = f"must exceed the insertion margin {INSERT_MARGIN} m"
        if self.trials < 1:
            fails["trials"] = "must be >= 1"
        if self.n_contacts < 0:
            fails["n_contacts"] = "must be >= 0"
        if self.selection not in ("ig", "random"):
            fails["selection"] = "must be 'ig' or 'random'"
        if self.particles < 2:
            fails["particles"] = "must be >= 2"
        if not self.d_th > 0:
            fails["d_th"] = "must be > 0"
        for i, (st, sr) in enumerate(self.noise_grid):
            if not (st >= 0 and sr >= 0):
                fails[f"noise_grid[{i}]"] = "sigmas must be >= 0"
        if fails:
            raise ConfigError(fails)

    @staticmethod
    def from_json(d: dict) -> "CampaignConfig":
        """Config from a JSON object; raises ConfigError naming every unknown key."""
        known = {f.name for f in fields(CampaignConfig)}
        unknown = sorted(set(d) - known)
        if unknown:
            raise ConfigError({key: "unknown key" for key in unknown})
        kwargs = dict(d)
        if "profiles" in d:
            kwargs["profiles"] = tuple(d["profiles"])
        if "noise_grid" in d:
            kwargs["noise_grid"] = tuple((float(a), float(b)) for a, b in d["noise_grid"])
        cfg = CampaignConfig(**kwargs)
        cfg.validate()
        return cfg


@dataclass(frozen=True)
class TrialResult:
    profile: str
    sigma_t: float
    sigma_r: float
    seed: int
    vision_success: bool
    refined_success: bool
    vision_lateral: float
    refined_lateral: float
    vision_rotation: float
    refined_rotation: float
    contacts_to_1p5mm: int  # first step with translation error < 1.5 mm; -1 if never
    final_translation_error: float
    diverged: bool


def trial_setup(
    cfg: CampaignConfig, profile: str, sigma_t: float, sigma_r: float, seed: int
) -> tuple[Scene, RefinementConfig]:
    """The scene and refinement config of one trial: cell (profile, sigma_t, sigma_r), seed."""
    noise = SceneNoise(in_hand_sigma_t=sigma_t, in_hand_sigma_r=sigma_r)
    scene = make_peg_hole_scene(profile, clearance=cfg.clearance, depth=cfg.depth, seed=seed, noise=noise)
    rcfg = RefinementConfig(particles=cfg.particles, noise=NoiseConfig(d_th=cfg.d_th), selection=cfg.selection,
                            seed=seed)
    return scene, rcfg


def _run_trial(cfg: CampaignConfig, profile: str, sigma_t: float, sigma_r: float, seed: int) -> TrialResult:
    scene, rcfg = trial_setup(cfg, profile, sigma_t, sigma_r, seed)
    v_lat, _, v_rot, v_ok = scene.insertion_verdict(scene.z_perceived)
    diverged = False
    try:
        res = run_refinement(scene, cfg.n_contacts, rcfg)
        z = res.estimate.value
        steps = res.steps
    except RefinementDivergence as e:
        diverged = True
        z = scene.z_perceived
        steps = e.diagnostics or ()
    r_lat, _, r_rot, r_ok = scene.insertion_verdict(z)
    reach = next((s.step for s in steps if s.translation_error < 0.0015), -1)
    t_err = steps[-1].translation_error if steps else float(
        np.linalg.norm(scene.z_perceived.t - scene.z_true.t)
    )
    return TrialResult(
        profile=profile,
        sigma_t=sigma_t,
        sigma_r=sigma_r,
        seed=seed,
        vision_success=v_ok,
        refined_success=r_ok,
        vision_lateral=v_lat,
        refined_lateral=r_lat,
        vision_rotation=v_rot,
        refined_rotation=r_rot,
        contacts_to_1p5mm=reach,
        final_translation_error=t_err,
        diverged=diverged,
    )


_STDERR = object()  # run_campaign's default log: sys.stderr as of the call


def run_campaign(cfg: CampaignConfig, seeds=None, log=_STDERR) -> tuple[list[TrialResult], dict]:
    """Execute all cells; returns (trial rows, summary dict).

    Each (profile, noise) cell runs its trials and is summarised from those
    rows in the same pass, so cells listed twice are reported twice, each
    from its own trials. The seed list defaults to base_seed + trial index
    per cell; passing an explicit list pins it. The timing line goes to log,
    by default the sys.stderr current at the call; log=None is silent.
    """
    if log is _STDERR:
        log = sys.stderr
    cfg.validate()
    t0 = time.monotonic()
    cell_seeds = list(seeds) if seeds is not None else [cfg.base_seed + i for i in range(cfg.trials)]
    rows: list[TrialResult] = []
    summary: dict = {"cells": []}
    for profile in cfg.profiles:
        for sigma_t, sigma_r in cfg.noise_grid:
            cell = [_run_trial(cfg, profile, sigma_t, sigma_r, int(seed)) for seed in cell_seeds[: cfg.trials]]
            rows += cell
            lat = np.array([r.refined_lateral for r in cell])
            rot = np.array([r.refined_rotation for r in cell])
            terr = np.array([r.final_translation_error for r in cell])
            reached = [r.contacts_to_1p5mm for r in cell if r.contacts_to_1p5mm > 0]
            summary["cells"].append(
                {
                    "profile": profile,
                    "sigma_t": sigma_t,
                    "sigma_r": sigma_r,
                    "trials": len(cell),
                    "vision_success_rate": float(np.mean([r.vision_success for r in cell])),
                    "refined_success_rate": float(np.mean([r.refined_success for r in cell])),
                    "vision_success_ci95": wilson_interval(sum(r.vision_success for r in cell), len(cell)),
                    "refined_success_ci95": wilson_interval(sum(r.refined_success for r in cell), len(cell)),
                    "mean_translation_error": float(terr.mean()),
                    "p95_translation_error": float(np.quantile(terr, 0.95)),
                    "mean_lateral_error": float(lat.mean()),
                    "p95_lateral_error": float(np.quantile(lat, 0.95)),
                    "mean_rotation_error": float(rot.mean()),
                    "p95_rotation_error": float(np.quantile(rot, 0.95)),
                    "mean_contacts_to_1p5mm": float(np.mean(reached)) if reached else -1.0,
                    "diverged": int(np.sum([r.diverged for r in cell])),
                }
            )
    if log is not None:
        print(f"campaign: {len(rows)} trials in {time.monotonic() - t0:.1f}s", file=log)
    return rows, summary


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return _FMT.format(v)
    return str(v)


def write_campaign_outputs(rows: list[TrialResult], summary: dict, csv_path, summary_path) -> None:
    """Deterministic CSV + JSON artifacts (no timing fields); one CSV column per TrialResult field."""
    columns = [f.name for f in fields(TrialResult)]
    lines = [",".join(columns)]
    for r in rows:
        lines.append(",".join(_csv_cell(getattr(r, c)) for c in columns))
    Path(csv_path).write_text("\n".join(lines) + "\n")
    Path(summary_path).write_text(canonical_json(summary) + "\n")
