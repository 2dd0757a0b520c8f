import numpy as np
import pytest

from liodom.geometry import Pose, compose, rot_z, so3_exp
from liodom.supervisor import (SourceStatus, Supervisor, SwitchEvent,
                               yaw_translation_stitch)


def lio(t, warn=False, health=True):
    return SourceStatus("lio", t, 10.0, observability_warning=warn,
                        input_health=health, priority=0)


def wheel(t):
    return SourceStatus("wheel", t, 50.0, priority=1)


def test_stitch_makes_output_continuous():
    rng = np.random.default_rng(0)
    prev = Pose(rot_z(0.4), rng.normal(size=3))
    new = Pose(rot_z(-0.2), rng.normal(size=3))
    T = yaw_translation_stitch(prev, new)
    out = compose(T, new)
    assert np.allclose(out.translation, prev.translation, atol=1e-12)
    # yaw matches, roll/pitch untouched
    assert np.allclose(out.rotation, prev.rotation, atol=1e-12)


def test_stitch_preserves_gravity_alignment():
    """Stitching only applies yaw: a tilted previous output must not tilt
    the new source's gravity-aligned attitude."""
    prev = Pose(so3_exp([0.3, 0.0, 0.0]) @ rot_z(0.5), np.array([1.0, 2.0, 0.0]))
    new = Pose(rot_z(0.1), np.zeros(3))
    T = yaw_translation_stitch(prev, new)
    out = compose(T, new)
    assert np.allclose(out.translation, prev.translation, atol=1e-12)
    # the stitched attitude keeps the new source's zero roll/pitch
    assert abs(out.rotation[2, 0]) < 1e-12
    assert abs(out.rotation[2, 1]) < 1e-12


def test_select_requires_registered_sources():
    with pytest.raises(ValueError):
        Supervisor().select()


def test_prefers_high_priority_when_clean():
    sup = Supervisor(hold_time=0.5)
    for t in np.arange(0.0, 1.2, 0.1):
        sup.report(lio(t))
        sup.report(wheel(t))
    assert sup.select(1.1) == "lio"
    assert not sup.degraded


def test_switches_away_on_observability_warning():
    sup = Supervisor(hold_time=0.5)
    I = Pose.identity()
    for t in np.arange(0.0, 1.01, 0.1):
        sup.report(lio(t))
        sup.report(wheel(t))
        sup.update(t, {"lio": I, "wheel": I})
    assert sup.active == "lio"
    sup.report(lio(1.1, warn=True))
    sup.report(wheel(1.1))
    sup.update(1.1, {"lio": I, "wheel": I})
    assert sup.active == "wheel"
    assert sup.switches[-1].reason == "active source degraded"


def test_returns_after_hold_time_clean():
    sup = Supervisor(hold_time=0.5)
    I = Pose.identity()
    for t in np.arange(0.0, 1.01, 0.1):
        sup.report(lio(t, warn=t >= 0.5))
        sup.report(wheel(t))
        sup.update(t, {"lio": I, "wheel": I})
    assert sup.active == "wheel"
    # lio clean again at 1.1 but must stay clean for hold_time first
    for t in np.arange(1.1, 1.55, 0.1):
        sup.report(lio(t))
        sup.report(wheel(t))
        sup.update(t, {"lio": I, "wheel": I})
        assert sup.active == "wheel"
    for t in np.arange(1.6, 2.01, 0.1):
        sup.report(lio(t))
        sup.report(wheel(t))
        sup.update(t, {"lio": I, "wheel": I})
    assert sup.active == "lio"
    assert sup.switches[-1].reason == "priority recovery"


def test_stale_source_is_not_fresh():
    sup = Supervisor(hold_time=0.2)
    I = Pose.identity()
    for t in np.arange(0.0, 1.01, 0.1):
        sup.report(lio(t))
        sup.report(wheel(t))
        sup.update(t, {"lio": I, "wheel": I})
    # lio stops producing; wheel keeps reporting
    for t in np.arange(1.1, 2.01, 0.1):
        sup.report(wheel(t))
        sup.update(t, {"lio": I, "wheel": I})
    assert sup.active == "wheel"


def test_degraded_when_no_source_eligible():
    sup = Supervisor(hold_time=0.5)
    sup.report(lio(0.0, health=False))
    choice = sup.select(0.0)
    assert sup.degraded
    assert choice == "lio"          # still returns something deterministic


def test_unified_continuity_across_switch():
    """The unified output must not jump at a switch even when the sources
    disagree by meters."""
    sup = Supervisor(hold_time=0.3)
    lio_pose = lambda t: Pose(rot_z(0.2), np.array([t, 0.0, 0.0]))
    wheel_pose = lambda t: Pose(rot_z(-0.5), np.array([0.3 * t, 5.0, 0.0]))
    outputs = []
    for t in np.arange(0.0, 2.01, 0.1):
        sup.report(lio(t, warn=t >= 1.0))
        sup.report(wheel(t))
        outputs.append(sup.update(
            t, {"lio": lio_pose(t), "wheel": wheel_pose(t)}))
    assert len(sup.switches) == 1
    steps = [np.linalg.norm(b.translation - a.translation)
             for a, b in zip(outputs, outputs[1:])]
    assert max(steps) < 0.5


def test_switch_log_roundtrip(tmp_path):
    sup = Supervisor(hold_time=0.3)
    I = Pose.identity()
    for t in np.arange(0.0, 2.01, 0.1):
        sup.report(lio(t, warn=0.9 <= t < 1.2))
        sup.report(wheel(t))
        sup.update(t, {"lio": I, "wheel": I})
    path = tmp_path / "switches.csv"
    sup.write_switch_log(str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "time,from,to,reason"
    assert len(lines) == 1 + len(sup.switches)
    assert len(sup.switches) >= 2     # away and back
