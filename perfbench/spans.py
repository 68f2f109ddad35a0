"""Span tracing for the traced run.

`instrument(tracer)` replaces each layer's public functions at the names
their callers look them up by (module globals or class attributes) with
wrappers that record a span: name, start, end, parent span and job id.
Spans are kept in memory and written out when the run ends. A span's self
time is its duration minus the durations of its direct children. Hooks
record counts where the work happens, worked out from argument and result
sizes. Nothing under src/ is edited; every wrapper is removed on exit.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from keycontact.errors import TransferStageError
from keycontact.transfer.matching import RANSAC_ITERATIONS

_F8 = 8  # bytes per float64


class Tracer:
    """In-memory span recorder for one synchronous caller."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, int, int]] = []  # id, parent, job, name, start_ns, end_ns
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.job = -1
        self._stack: list[int] = []
        self._next_id = 0

    def add(self, key: str, value: float = 1.0) -> None:
        self.counts[key] += value

    def peak(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima[key], value)

    def wrap(self, fn, name: str, hook=None):
        clock = time.perf_counter_ns
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                spans.append((sid, parent, self.job, name, start, clock()))
                stack.pop()
                if hook is not None:
                    hook(self, args, kwargs, None, exc)
                raise
            spans.append((sid, parent, self.job, name, start, clock()))
            stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result, None)
            return result

        return wrapper

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        child_ns: dict[int, int] = defaultdict(int)
        for _, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for sid, _, _, name, start, end in self.spans:
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += (end - start) * 1e-9
            row["self_s"] += (end - start - child_ns[sid]) * 1e-9
        return out

    def write(self, path) -> None:
        with open(path, "w") as f:
            f.write("id,parent,job,name,start_ns,end_ns\n")
            for span in self.spans:
                f.write(",".join(map(str, span)) + "\n")


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


# -- count hooks: hook(tracer, args, kwargs, result, exc) ----------------------

def _stage_failure(t, args, kwargs, result, exc):
    if isinstance(exc, TransferStageError):
        t.add("transfer.pipeline.stage_failures")
        t.add(f"transfer.pipeline.stage_failures.{exc.stage}")


def _voxels(t, args, kwargs, result, exc):
    if exc is None:
        t.add("transfer.grids.voxels", len(result))


def _region_voxels(t, args, kwargs, result, exc):
    if exc is None:
        t.add("transfer.grids.region_voxels", int(result[0].sum()))


def _correspondences(t, args, kwargs, result, exc):
    if exc is None:
        t.add("transfer.matching.correspondences", len(result))


def _ransac(t, args, kwargs, result, exc):
    pairs = len(_arg(args, kwargs, 0, "c"))
    hypotheses = _arg(args, kwargs, 1, "iterations", RANSAC_ITERATIONS)
    t.add("transfer.matching.ransac_hypotheses", hypotheses)
    # the (hypotheses, pairs, 3) mapped-point tensor
    t.peak("transfer.matching.ransac_residual_mb", hypotheses * pairs * 3 * _F8 / 1e6)
    if exc is None:
        t.add("transfer.matching.ransac_pairs", pairs)
        t.add("transfer.matching.ransac_inliers", int(result[1].sum()))


def _nonrigid(t, args, kwargs, result, exc):
    pairs = len(_arg(args, kwargs, 0, "ref_points")) * len(_arg(args, kwargs, 1, "tgt_points"))
    t.add("transfer.nonrigid.pairs", pairs)
    # the (N_ref, N_tgt, 3) difference tensor of one E-step
    t.peak("transfer.nonrigid.estep_mb", pairs * 3 * _F8 / 1e6)
    if exc is None:
        t.add("transfer.nonrigid.converged", bool(result.converged))


def _refinement(t, args, kwargs, result, exc):
    steps = result.steps if exc is None else (getattr(exc, "diagnostics", None) or ())
    t.add("refiner.loop.steps", len(steps))
    t.add("refiner.loop.contacts", sum(s.contact for s in steps))


def _update(t, args, kwargs, result, exc):
    if exc is not None:
        return
    ps, diverged = result
    t.add("refiner.filter.updates")
    if diverged:
        t.add("refiner.filter.diverged_updates")
    else:
        t.add("refiner.filter.ess_ratio_sum", 1.0 / float((ps.weights**2).sum()) / len(ps))


def _resample(t, args, kwargs, result, exc):
    if exc is None and result is not _arg(args, kwargs, 0, "ps"):
        t.add("refiner.filter.resampled")


def _contact_points(t, args, kwargs, result, exc):
    pts = _arg(args, kwargs, 5, "slave_contact_points")
    per_particle = len(pts) if pts is not None and len(pts) else 1
    t.add("refiner.filter.contact_distances.points", len(_arg(args, kwargs, 0, "quats")) * per_particle)


def _candidates(t, args, kwargs, result, exc):
    if exc is None:
        t.add("refiner.strategy.candidates", len(result))


def _selection(t, args, kwargs, result, exc):
    if exc is None:
        t.add("refiner.strategy.scored", len(result.mean_entropies))
        t.add("refiner.strategy.valid", int(np.isfinite(result.mean_entropies).sum()))


def _probe_batch(t, args, kwargs, result, exc):
    if exc is None:
        t.add("sim.probe.probe_batch.hypotheses", len(result))
        t.add("sim.probe.probe_batch.hits", sum(r is not None for r in result))


def _query(t, args, kwargs, result, exc):
    if exc is None:
        t.add("geometry.shape.SdfGrid.query.points", len(result))


def _grid_nodes(t, args, kwargs, result, exc):
    if exc is None:
        t.add("geometry.shape.grid_nodes", args[0].grid.values.size)


# (module, class or None, attribute, span name, hook). Each entry patches the
# name its caller resolves at call time, so the caller's lookup hits the wrapper.
TARGETS = [
    ("keycontact.transfer", None, "transfer_keypoint", "transfer.pipeline.transfer_keypoint", _stage_failure),
    ("keycontact.transfer.pipeline", None, "voxelize_cloud", "transfer.grids.voxelize_cloud", _voxels),
    ("keycontact.transfer.pipeline", None, "region_similarity", "transfer.grids.region_similarity", None),
    ("keycontact.transfer.pipeline", None, "otsu_region", "transfer.grids.otsu_region", _region_voxels),
    ("keycontact.transfer.pipeline", None, "median_nn_feature_distance",
     "transfer.matching.median_nn_feature_distance", None),
    ("keycontact.transfer.pipeline", None, "relaxed_best_buddies", "transfer.matching.relaxed_best_buddies",
     _correspondences),
    ("keycontact.transfer.pipeline", None, "ransac_rigid_align", "transfer.matching.ransac_rigid_align", _ransac),
    ("keycontact.transfer.pipeline", None, "nonrigid_register", "transfer.nonrigid.nonrigid_register", _nonrigid),
    ("keycontact.transfer.pipeline", None, "solve_keypoint_frame", "transfer.pipeline.solve_keypoint_frame", None),
    ("keycontact.sim", None, "run_campaign", "sim.campaign.run_campaign", None),
    ("keycontact.sim.campaign", None, "make_peg_hole_scene", "sim.scenes.make_peg_hole_scene", None),
    ("keycontact.sim.campaign", None, "run_refinement", "refiner.loop.run_refinement", _refinement),
    ("keycontact.sim.scenes", None, "penetration_depth", "geometry.shape.penetration_depth", None),
    ("keycontact.refiner.loop", None, "filter_predict", "refiner.filter.filter_predict", None),
    ("keycontact.refiner.loop", None, "filter_update", "refiner.filter.filter_update", _update),
    ("keycontact.refiner.loop", None, "filter_estimate", "refiner.filter.filter_estimate", None),
    ("keycontact.refiner.loop", None, "resample", "refiner.filter.resample", _resample),
    ("keycontact.refiner.loop", None, "state_entropy", "refiner.filter.state_entropy", None),
    ("keycontact.refiner.loop", None, "sample_contact_candidates", "refiner.strategy.sample_contact_candidates",
     _candidates),
    ("keycontact.refiner.loop", None, "select_contact_strategy", "refiner.strategy.select_contact_strategy",
     _selection),
    ("keycontact.refiner.strategy", None, "contact_distances", "refiner.filter.contact_distances", _contact_points),
    ("keycontact.refiner.strategy", None, "filter_estimate", "refiner.filter.filter_estimate", None),
    ("keycontact.refiner.filter", None, "contact_distances", "refiner.filter.contact_distances", _contact_points),
    ("keycontact.sim.probe", "ProbeSimulator", "probe", "sim.probe.probe", None),
    ("keycontact.sim.probe", "ProbeSimulator", "probe_batch", "sim.probe.probe_batch", _probe_batch),
    ("keycontact.geometry.shape", "SdfGrid", "query", "geometry.shape.SdfGrid.query", _query),
    ("keycontact.geometry.shape", "ShapeModel", "__init__", "geometry.shape.ShapeModel.build", _grid_nodes),
]


@contextmanager
def instrument(tracer: Tracer):
    """Install a span wrapper at every target; restore the originals on exit."""
    undo = []
    try:
        for module, cls, attr, name, hook in TARGETS:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            orig = owner.__dict__[attr]
            undo.append((owner, attr, orig))
            setattr(owner, attr, tracer.wrap(orig, name, hook))
        yield tracer
    finally:
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# per-layer metric -> span name whose self seconds it sums
SELF_SECONDS = {
    "transfer.nonrigid.nonrigid_register.s": "transfer.nonrigid.nonrigid_register",
    "transfer.matching.median_nn_feature_distance.s": "transfer.matching.median_nn_feature_distance",
    "transfer.matching.relaxed_best_buddies.s": "transfer.matching.relaxed_best_buddies",
    "transfer.matching.ransac_rigid_align.s": "transfer.matching.ransac_rigid_align",
    "transfer.grids.voxelize_cloud.s": "transfer.grids.voxelize_cloud",
    "transfer.grids.region_similarity.s": "transfer.grids.region_similarity",
    "transfer.grids.otsu_region.s": "transfer.grids.otsu_region",
    "transfer.pipeline.solve_keypoint_frame.s": "transfer.pipeline.solve_keypoint_frame",
    "transfer.pipeline.transfer_keypoint.self_s": "transfer.pipeline.transfer_keypoint",
    "refiner.strategy.sample_contact_candidates.s": "refiner.strategy.sample_contact_candidates",
    "refiner.strategy.select_contact_strategy.self_s": "refiner.strategy.select_contact_strategy",
    "sim.probe.probe_batch.s": "sim.probe.probe_batch",
    "sim.probe.probe.s": "sim.probe.probe",
    "refiner.filter.filter_predict.s": "refiner.filter.filter_predict",
    "refiner.filter.filter_update.s": "refiner.filter.filter_update",
    "refiner.filter.contact_distances.s": "refiner.filter.contact_distances",
    "refiner.filter.resample.s": "refiner.filter.resample",
    "refiner.filter.state_entropy.s": "refiner.filter.state_entropy",
    "refiner.filter.filter_estimate.s": "refiner.filter.filter_estimate",
    "geometry.shape.SdfGrid.query.s": "geometry.shape.SdfGrid.query",
    "geometry.shape.penetration_depth.s": "geometry.shape.penetration_depth",
    "refiner.loop.run_refinement.self_s": "refiner.loop.run_refinement",
    "sim.scenes.make_peg_hole_scene.s": "sim.scenes.make_peg_hole_scene",
    "sim.campaign.run_campaign.self_s": "sim.campaign.run_campaign",
}


def layer_metrics(jobs: Tracer, setup: Tracer) -> dict[str, float]:
    """Per-layer metrics of a traced run: job spans plus the set-up builds."""
    times = jobs.layer_times()
    c, mx = jobs.counts, jobs.maxima

    def calls(span: str) -> int:
        return times.get(span, {}).get("calls", 0)

    out = {metric: times.get(span, {}).get("self_s", 0.0) for metric, span in SELF_SECONDS.items()}
    out.update({
        "transfer.nonrigid.pairs": c["transfer.nonrigid.pairs"],
        "transfer.nonrigid.converged_ratio": _ratio(c["transfer.nonrigid.converged"],
                                                    calls("transfer.nonrigid.nonrigid_register")),
        "transfer.nonrigid.estep_mb": mx["transfer.nonrigid.estep_mb"],
        "transfer.matching.correspondences": c["transfer.matching.correspondences"],
        "transfer.matching.ransac_hypotheses": c["transfer.matching.ransac_hypotheses"],
        "transfer.matching.ransac_inlier_ratio": _ratio(c["transfer.matching.ransac_inliers"],
                                                        c["transfer.matching.ransac_pairs"]),
        "transfer.matching.ransac_residual_mb": mx["transfer.matching.ransac_residual_mb"],
        "transfer.grids.voxels": c["transfer.grids.voxels"],
        "transfer.grids.region_voxels": c["transfer.grids.region_voxels"],
        "transfer.pipeline.stage_failures": c["transfer.pipeline.stage_failures"],
        "refiner.strategy.candidates": c["refiner.strategy.candidates"],
        "refiner.strategy.valid_candidate_ratio": _ratio(c["refiner.strategy.valid"], c["refiner.strategy.scored"]),
        "sim.probe.probe_batch.hypotheses": c["sim.probe.probe_batch.hypotheses"],
        "sim.probe.probe_batch.hit_ratio": _ratio(c["sim.probe.probe_batch.hits"],
                                                  c["sim.probe.probe_batch.hypotheses"]),
        "refiner.filter.contact_distances.points": c["refiner.filter.contact_distances.points"],
        "refiner.filter.resampled_ratio": _ratio(c["refiner.filter.resampled"], calls("refiner.filter.resample")),
        "refiner.filter.ess_ratio": _ratio(c["refiner.filter.ess_ratio_sum"],
                                           c["refiner.filter.updates"] - c["refiner.filter.diverged_updates"]),
        "refiner.filter.diverged_updates": c["refiner.filter.diverged_updates"],
        "geometry.shape.SdfGrid.query.calls": calls("geometry.shape.SdfGrid.query"),
        "geometry.shape.SdfGrid.query.points": c["geometry.shape.SdfGrid.query.points"],
        "geometry.shape.ShapeModel.build_s": setup.layer_times().get(
            "geometry.shape.ShapeModel.build", {}).get("self_s", 0.0),
        "geometry.shape.grid_nodes": setup.counts["geometry.shape.grid_nodes"],
        "refiner.loop.contact_ratio": _ratio(c["refiner.loop.contacts"], c["refiner.loop.steps"]),
    })
    return out
