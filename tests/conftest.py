import math

import numpy as np
import pytest

from wivision import (
    ArrayGeometry,
    ChannelConfig,
    GainGate,
    GridSpec,
    PathHypothesis,
    Scene,
    ScenePath,
    SpectrumTrack,
    default_geometry,
    human_walk_preset,
    noise_subspace_from_window,
    simulate,
    spectrum,
    windows,
)
from wivision.imaging import enhance_track
from wivision.stream import block_len


@pytest.fixture
def cfg():
    return ChannelConfig()


@pytest.fixture
def full_geom(cfg):
    """The full 9 rx / 3 tx / 30 subcarrier virtual array (dim 810)."""
    return default_geometry(cfg)


@pytest.fixture
def small_geom(cfg):
    """A small array for cheap eigendecomposition tests (dim 48)."""
    return ArrayGeometry.l_shaped(cfg.wavelength_m / 2.0, arm_x=2, arm_z=2,
                                  n_tx=2, n_subcarriers=8)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def mixed_scenes():
    """``make(dim, snr_db)``: one jittered, gated and moving three-path scene
    per packet count around the block length of the per-packet stages on a
    ``dim``-element array: 1, block - 1, block, block + 1 and 3.5 blocks."""
    def make(dim, snr_db):
        block = block_len(dim)
        scenes = []
        for n in (1, block - 1, block, block + 1, 3 * block + block // 2):
            duration = n / 1000.0
            walk = ((0.0, PathHypothesis(60, 80, 15e-9, 75)),
                    (duration, PathHypothesis(70, 85, 25e-9, 80)))
            paths = (ScenePath(PathHypothesis(90, 90, 5e-9, 90), tag="los",
                               phase_jitter=1.0),
                     ScenePath(walk[0][1], gain=0.5j, tag="human", motion=walk,
                               gate=GainGate(0.004), phase_jitter=0.3),
                     ScenePath(PathHypothesis(130, 95, 35e-9, 110), gain=0.3))
            scenes.append(Scene(paths, snr_db=snr_db, duration_s=duration, rng_seed=17))
        return scenes
    return make


@pytest.fixture
def persona_track():
    """``make(cfg, geom, persona, seed, n_frames)``: the globally enhanced track
    of ``n_frames`` noiseless 100-packet windows, at stride 33, of one walking
    persona, each imaged on a 4-point (tof, aod) grid around the persona."""
    scan = GridSpec(tof_grid_s=np.array([30e-9, 32e-9, 34e-9, 36e-9]),
                    aod_grid_deg=np.array([90.0]))

    def make(cfg, geom, persona, seed, n_frames):
        duration = (100 + (n_frames - 1) * 33 + 1) / 1000.0
        scene = human_walk_preset(persona, duration_s=duration, snr_db=math.inf,
                                  rng_seed=seed)
        shots = windows(simulate(scene, cfg, geom), 100, 33)
        grids = [spectrum(noise_subspace_from_window(w), scan, cfg, geom).grid
                 for w in shots]
        track = SpectrumTrack(np.stack(grids), [w.timestamp_ns for w in shots],
                              frame_rate_hz=1000 / 33)
        return enhance_track(track, floor_db=20.0, mode="global",
                             static_window=len(track))
    return make
