import numpy as np
import pytest

from keycontact.errors import ConfigError, DegenerateInputError, MisalignedTimebaseError
from keycontact.geometry import PointCloud, Pose
from keycontact.grounding import (
    Segment,
    TrackedEntity,
    contact_markers,
    filter_segments,
    hand_path_length,
    label_phase,
)


def entity_from_distance_series(dists, eid="a"):
    """Two single-point entities whose min cloud distance follows dists."""
    n = len(dists)
    ts = np.arange(n, dtype=float)
    a = TrackedEntity(
        id=eid,
        clouds=tuple(PointCloud(np.zeros((1, 3))) for _ in range(n)),
        poses=tuple(Pose.identity() for _ in range(n)),
        timestamps=ts,
    )
    b = TrackedEntity(
        id=eid + "_other",
        clouds=tuple(PointCloud(np.array([[d, 0.0, 0.0]])) for d in dists),
        poses=tuple(Pose.identity() for _ in range(n)),
        timestamps=ts,
    )
    return a, b


def threshold_scan_oracle(dists, eps):
    """Literal scan of the crossing definition, with end-of-series closing."""
    markers, open_tb = [], None
    for t in range(1, len(dists)):
        if open_tb is None and dists[t - 1] > eps and dists[t] < eps:
            open_tb = t
        elif open_tb is not None and dists[t - 1] < eps and dists[t] > eps:
            markers.append((open_tb, t))
            open_tb = None
    if open_tb is not None:
        markers.append((open_tb, len(dists) - 1))
    return markers


def test_contact_markers_never_close():
    a, b = entity_from_distance_series([0.5, 0.4, 0.3, 0.4, 0.5])
    assert contact_markers(a, b, epsilon=0.02) == []


def test_contact_markers_single_dip():
    d = [0.05, 0.03, 0.01, 0.01, 0.03, 0.05]
    a, b = entity_from_distance_series(d)
    assert contact_markers(a, b, epsilon=0.02) == [(2, 4)]
    assert threshold_scan_oracle(d, 0.02) == [(2, 4)]


def test_contact_markers_two_cycles_ordered():
    ts = np.linspace(0, 4 * np.pi, 80)
    d = 0.03 + 0.02 * np.sin(ts)  # two approach/retreat cycles
    a, b = entity_from_distance_series(d)
    got = contact_markers(a, b, epsilon=0.02)
    want = threshold_scan_oracle(d, 0.02)
    assert got == want
    assert len(got) == 2
    assert got[0][1] <= got[1][0]  # non-overlapping, ordered


def test_contact_markers_open_contact_closes_at_end():
    d = [0.05, 0.01, 0.01, 0.01]
    a, b = entity_from_distance_series(d)
    assert contact_markers(a, b, epsilon=0.02) == [(1, 3)]


def test_contact_markers_equality_is_no_crossing():
    # hitting epsilon exactly must not count as a crossing
    d = [0.05, 0.02, 0.01, 0.02, 0.05]
    a, b = entity_from_distance_series(d)
    assert contact_markers(a, b, epsilon=0.02) == threshold_scan_oracle(d, 0.02) == []


def test_contact_markers_match_oracle_on_random_series():
    rng = np.random.default_rng(11)
    for _ in range(200):
        d = rng.uniform(0.0, 0.05, size=rng.integers(5, 40))
        a, b = entity_from_distance_series(d)
        assert contact_markers(a, b, epsilon=0.02) == threshold_scan_oracle(d, 0.02)


def test_contact_markers_misaligned_timebase():
    a, _ = entity_from_distance_series([0.1, 0.1, 0.1])
    b = TrackedEntity(
        id="b",
        clouds=tuple(PointCloud(np.zeros((1, 3))) for _ in range(3)),
        poses=tuple(Pose.identity() for _ in range(3)),
        timestamps=np.array([0.0, 1.5, 3.0]),
    )
    with pytest.raises(MisalignedTimebaseError):
        contact_markers(a, b, 0.02)


def _entity(n_clouds=3, n_poses=3, timestamps=(0.0, 1.0, 2.0)):
    return TrackedEntity(id="a", clouds=tuple(PointCloud(np.zeros((1, 3))) for _ in range(n_clouds)),
                         poses=tuple(Pose.identity() for _ in range(n_poses)), timestamps=np.array(timestamps))


@pytest.mark.parametrize("kwargs, match", [
    ({"n_poses": 2}, "equal length"),
    ({"n_clouds": 1, "n_poses": 1, "timestamps": (0.0,)}, "at least 2 samples"),
    ({"timestamps": (0.0, 1.0, 1.0)}, "strictly increasing"),
], ids=["unequal_lengths", "one_sample", "repeated_timestamp"])
def test_malformed_trajectory_is_degenerate_input(kwargs, match):
    with pytest.raises(DegenerateInputError, match=match):
        _entity(**kwargs)


def test_segment_that_does_not_advance_is_degenerate_input():
    with pytest.raises(DegenerateInputError, match="t_b < t_e"):
        Segment(3, 3, "obj", "hand", "grasping")


def test_segment_with_an_unknown_phase_names_the_field():
    with pytest.raises(ConfigError) as err:
        Segment(0, 4, "obj", "hand", "pouring")
    assert set(err.value.failures) == {"phase"}


@pytest.mark.parametrize("epsilon", [0.0, -0.01])
def test_contact_markers_with_a_non_positive_epsilon_names_the_field(epsilon):
    a, b = entity_from_distance_series([0.1, 0.0, 0.1])
    with pytest.raises(ConfigError) as err:
        contact_markers(a, b, epsilon)
    assert set(err.value.failures) == {"epsilon"}


# --- segment filtering -------------------------------------------------------

def make_hand(points_per_frame):
    n = len(points_per_frame)
    return TrackedEntity(
        id="hand",
        clouds=tuple(PointCloud(np.atleast_2d(p)) for p in points_per_frame),
        poses=tuple(Pose.identity() for _ in range(n)),
        timestamps=np.arange(n, dtype=float),
    )


def test_filter_segments_stationary_hand_dropped():
    hand = make_hand([np.zeros(3)] * 5)
    segs = [Segment(0, 4, "obj", "hand", "grasping")]
    assert filter_segments(segs, hand, gamma=0.05) == []


def test_filter_segments_long_path_kept():
    hand = make_hand([np.array([0.025 * i, 0, 0]) for i in range(5)])  # 10 cm
    segs = [Segment(0, 4, "obj", "hand", "grasping")]
    assert filter_segments(segs, hand, gamma=0.05) == segs


def test_hand_path_length_matches_step_sum():
    rng = np.random.default_rng(12)
    pts = rng.normal(scale=0.01, size=(20, 3))
    hand = make_hand(list(pts))
    want = float(np.linalg.norm(np.diff(pts[3:15], axis=0), axis=1).sum())
    assert hand_path_length(hand, 3, 14) == pytest.approx(want, abs=1e-12)


def test_phase_rule():
    assert label_phase("brush", "hand") == "grasping"
    assert label_phase("pan", "brush") == "manipulation"
