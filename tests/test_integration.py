"""Cross-module pipeline checks driven by the simulator oracle."""

import math

import numpy as np
import pytest

from wivision import PersonaParams, SpectrumTrack, aggregate, extract_features


def test_persona_elevation_span_round_trip(cfg, full_geom, persona_track):
    persona = PersonaParams(elevation_span_deg=30.0, azimuth_span_deg=10.0,
                            gait_period_s=1.0, start_azimuth_deg=60.0,
                            tof_ns=30.0)
    enhanced = persona_track(cfg, full_geom, persona, seed=31, n_frames=55)
    features = extract_features(enhanced)
    assert features.elevation_extent_deg == pytest.approx(30.0, abs=2.0)


def test_disjoint_elevation_spans_separate_height_features(cfg, full_geom, persona_track):
    short = PersonaParams(elevation_span_deg=16.0, azimuth_span_deg=10.0,
                          gait_period_s=1.0, center_elevation_deg=70.0,
                          start_azimuth_deg=60.0, tof_ns=30.0)
    tall = PersonaParams(elevation_span_deg=30.0, azimuth_span_deg=10.0,
                         gait_period_s=1.0, center_elevation_deg=105.0,
                         start_azimuth_deg=60.0, tof_ns=30.0)
    f_short = extract_features(persona_track(cfg, full_geom, short, seed=32,
                                             n_frames=55))
    f_tall = extract_features(persona_track(cfg, full_geom, tall, seed=33,
                                            n_frames=55))
    assert f_tall.elevation_extent_deg - f_short.elevation_extent_deg \
        == pytest.approx(14.0, abs=3.0)
    assert f_tall.centroid_elevation_deg - f_short.centroid_elevation_deg > 20.0


def test_aggregate_argmax_tracks_walking_subject(cfg, full_geom, persona_track):
    """With one moving human path group the argmax of the trailing 15-frame
    aggregate stays within 3 bins of the body centroid in >= 90% of frames."""
    persona = PersonaParams(elevation_span_deg=8.0, azimuth_span_deg=2.0,
                            gait_period_s=1.0, walk_speed_deg_per_s=6.0,
                            start_azimuth_deg=60.0, center_elevation_deg=90.0,
                            tof_ns=30.0)
    n_frames = 60
    duration = (100 + (n_frames - 1) * 33 + 1) / 1000.0
    enhanced = persona_track(cfg, full_geom, persona, seed=34, n_frames=n_frames)

    n_steps = int(math.floor(6.0 * duration))
    dwell = duration / (n_steps + 1)
    frame_times = (100 + np.arange(len(enhanced)) * 33) / 1000.0

    hits = 0
    checked = 0
    for i in range(15, len(enhanced)):
        agg = aggregate(SpectrumTrack(enhanced.grids[:i + 1],
                                      frame_rate_hz=enhanced.frame_rate_hz), k=15)
        az_peak, el_peak = agg.argmax_angles()
        az_true = 60.0 + min(int(frame_times[i] / dwell), n_steps)
        checked += 1
        hits += abs(az_peak - az_true) <= 3 and abs(el_peak - 90.0) <= 3
    assert hits / checked >= 0.90
