"""Scene description files: INI-style sections with unit-suffixed keys.

Sections:

* ``[channel]``    carrier_hz, subcarrier_spacing_hz, tx_spacing_m
* ``[geometry]``   layout (l_shape), arm_x, arm_z, spacing_m, n_tx,
                   n_subcarriers, or explicit rx_<i>_m = x,y,z rows
* ``[simulation]`` snr_db, packet_rate_hz, duration_s, seed
* ``[path:NAME]``  tag, azimuth_deg, elevation_deg, tof_ns, aod_deg, gain_db,
                   phase_deg, phase_jitter, gate_period_s, gate_duty,
                   gate_phase_s, and keyframe_<i>_{time_s,azimuth_deg,
                   elevation_deg,tof_ns,aod_deg} trajectory rows
* ``[persona:NAME]`` elevation_span_deg, azimuth_span_deg, gait_period_s,
                   walk_speed_deg_per_s, start_azimuth_deg,
                   center_elevation_deg, gain_db, tof_ns, aod_deg, leg_duty,
                   head_gated (0 or 1)

Unknown sections or keys are rejected.  All sections are optional; missing
values fall back to the documented defaults.  Persona sections expand into
walking body-part paths and are appended to any explicit paths.
"""

from __future__ import annotations

import configparser
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .arraymodel import ArrayGeometry, ChannelConfig, PathHypothesis
from .simulate import (
    GainGate,
    PersonaParams,
    Scene,
    ScenePath,
    amplitude_from_db,
    human_walk_preset,
)

_CHANNEL_KEYS = {"carrier_hz", "subcarrier_spacing_hz", "tx_spacing_m"}
_GEOMETRY_KEYS = {"layout", "arm_x", "arm_z", "spacing_m", "n_tx", "n_subcarriers"}
_SIMULATION_KEYS = {"snr_db", "packet_rate_hz", "duration_s", "seed"}
_PATH_KEYS = {"tag", "azimuth_deg", "elevation_deg", "tof_ns", "aod_deg", "gain_db",
              "phase_deg", "phase_jitter", "gate_period_s", "gate_duty", "gate_phase_s"}
_PERSONA_KEYS = {"elevation_span_deg", "azimuth_span_deg", "gait_period_s",
                 "walk_speed_deg_per_s", "start_azimuth_deg", "center_elevation_deg",
                 "gain_db", "tof_ns", "aod_deg", "leg_duty", "head_gated"}
_KEYFRAME_RE = re.compile(
    r"^keyframe_(\d+)_(time_s|azimuth_deg|elevation_deg|tof_ns|aod_deg)$")
_RX_ROW_RE = re.compile(r"^rx_(\d+)_m$")


class SceneFileError(ValueError):
    """Malformed scene description file."""


@dataclass(frozen=True)
class SceneBundle:
    """Everything a scene file describes: channel, geometry, and the scene."""

    config: ChannelConfig
    geometry: ArrayGeometry
    scene: Scene


def load_scene(path, require_paths: bool = True) -> SceneBundle:
    """Parse a scene file.

    With ``require_paths=False`` a file carrying only [channel] and [geometry]
    sections is accepted (used for configuration overrides); the returned
    scene then has no paths.
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise SceneFileError(f"{path}: {exc}") from exc

    sections = dict(parser.items())
    sections.pop("DEFAULT", None)

    with _section(path, "channel"):
        cfg = _parse_channel(sections.pop("channel", {}), path)
    with _section(path, "geometry"):
        geom = _parse_geometry(sections.pop("geometry", {}), cfg, path)
    with _section(path, "simulation"):
        sim = _parse_simulation(sections.pop("simulation", {}), path)

    paths: list[ScenePath] = []
    personas: list[tuple[str, PersonaParams]] = []
    for name in list(sections):
        with _section(path, name):
            if name.startswith("path:"):
                paths.append(_parse_path(name, sections.pop(name), path))
            elif name.startswith("persona:"):
                personas.append((name, _parse_persona(name, sections.pop(name), path)))
    if sections:
        raise SceneFileError(f"{path}: unknown sections {sorted(sections)}")

    for name, persona in personas:
        with _section(path, name):
            walk = human_walk_preset(persona, duration_s=sim.duration_s,
                                     packet_rate_hz=sim.packet_rate_hz,
                                     snr_db=sim.snr_db, rng_seed=sim.rng_seed)
        paths.extend(walk.paths)
    if not paths and require_paths:
        raise SceneFileError(f"{path}: scene defines no paths or personas")

    with _section(path):
        scene = replace(sim, paths=tuple(paths))
    return SceneBundle(cfg, geom, scene)


@contextmanager
def _section(path, section: str | None = None):
    """Re-raise a model ``ValueError`` as a :class:`SceneFileError` naming the file.

    The message starts ``<path>: [<section>]``, or ``<path>:`` for a rule on
    the whole scene.
    """
    try:
        yield
    except SceneFileError:
        raise
    except ValueError as exc:
        where = f"{path}: [{section}]" if section else f"{path}:"
        raise SceneFileError(f"{where} {exc}") from exc


def _reject_unknown(section: str, items: dict, known, path) -> None:
    unknown = sorted(set(items) - set(known))
    if unknown:
        raise SceneFileError(f"{path}: unknown keys {unknown} in [{section}]")


def _get_float(items, key, default, path, section):
    if key not in items:
        return default
    text = items[key].strip()
    try:
        return float(text)
    except ValueError as exc:
        raise SceneFileError(f"{path}: [{section}] {key} = {text!r} is not a number") from exc


def _get_int(items, key, default, path, section):
    v = _get_float(items, key, default, path, section)
    if not float(v).is_integer():
        raise SceneFileError(f"{path}: [{section}] {key} must be an integer")
    return int(v)


def _parse_channel(items, path) -> ChannelConfig:
    items = dict(items)
    _reject_unknown("channel", items, _CHANNEL_KEYS, path)
    return ChannelConfig(
        carrier_hz=_get_float(items, "carrier_hz", 5.18e9, path, "channel"),
        subcarrier_spacing_hz=_get_float(items, "subcarrier_spacing_hz", 1.25e6,
                                         path, "channel"),
        tx_spacing_m=_get_float(items, "tx_spacing_m", None, path, "channel"),
    )


def _parse_geometry(items, cfg: ChannelConfig, path) -> ArrayGeometry:
    items = dict(items)
    rx_rows = {}
    for key in list(items):
        m = _RX_ROW_RE.match(key)
        if m:
            rx_rows[int(m.group(1))] = items.pop(key)
    _reject_unknown("geometry", items, _GEOMETRY_KEYS, path)
    n_tx = _get_int(items, "n_tx", 3, path, "geometry")
    n_su = _get_int(items, "n_subcarriers", 30, path, "geometry")
    if rx_rows:
        if "layout" in items or "arm_x" in items or "arm_z" in items:
            raise SceneFileError(f"{path}: [geometry] mixes explicit rx rows with a layout")
        if sorted(rx_rows) != list(range(len(rx_rows))):
            raise SceneFileError(f"{path}: [geometry] rx rows must be numbered 0..n-1")
        positions = []
        for i in range(len(rx_rows)):
            text = rx_rows[i].strip()
            try:
                x, y, z = (float(p) for p in text.split(","))
            except ValueError:
                raise SceneFileError(f"{path}: [geometry] rx_{i}_m = {text!r} must be "
                                     "three numbers x,y,z") from None
            positions.append([x, y, z])
        return ArrayGeometry(np.array(positions), n_tx=n_tx, n_subcarriers=n_su)
    layout = items.get("layout", "l_shape").strip()
    if layout != "l_shape":
        raise SceneFileError(f"{path}: [geometry] unknown layout {layout!r}")
    spacing = _get_float(items, "spacing_m", cfg.wavelength_m / 2.0, path, "geometry")
    arm_x = _get_int(items, "arm_x", 5, path, "geometry")
    arm_z = _get_int(items, "arm_z", 5, path, "geometry")
    return ArrayGeometry.l_shaped(spacing, arm_x=arm_x, arm_z=arm_z,
                                  n_tx=n_tx, n_subcarriers=n_su)


def _parse_simulation(items, path) -> Scene:
    """The [simulation] values as a scene without paths."""
    items = dict(items)
    _reject_unknown("simulation", items, _SIMULATION_KEYS, path)
    return Scene(
        (),
        snr_db=_get_float(items, "snr_db", math.inf, path, "simulation"),
        packet_rate_hz=_get_float(items, "packet_rate_hz", 1000.0, path, "simulation"),
        duration_s=_get_float(items, "duration_s", 1.0, path, "simulation"),
        rng_seed=_get_int(items, "seed", 0, path, "simulation"),
    )


def _parse_path(section: str, items, path) -> ScenePath:
    items = dict(items)
    keyframes: dict[int, dict[str, float]] = {}
    for key in list(items):
        m = _KEYFRAME_RE.match(key)
        if m:
            idx, fieldname = int(m.group(1)), m.group(2)
            keyframes.setdefault(idx, {})[fieldname] = _get_float(
                items, key, None, path, section)
            items.pop(key)
    _reject_unknown(section, items, _PATH_KEYS, path)

    az = _get_float(items, "azimuth_deg", 90.0, path, section)
    el = _get_float(items, "elevation_deg", 90.0, path, section)
    tof_ns = _get_float(items, "tof_ns", 0.0, path, section)
    aod = _get_float(items, "aod_deg", 90.0, path, section)
    gain_db = _get_float(items, "gain_db", 0.0, path, section)
    phase_deg = _get_float(items, "phase_deg", 0.0, path, section)
    gain = amplitude_from_db(gain_db) * np.exp(1j * np.deg2rad(phase_deg))

    gate = None
    if "gate_period_s" in items:
        gate = GainGate(
            period_s=_get_float(items, "gate_period_s", None, path, section),
            duty=_get_float(items, "gate_duty", 0.5, path, section),
            phase_s=_get_float(items, "gate_phase_s", 0.0, path, section),
        )
    elif "gate_duty" in items or "gate_phase_s" in items:
        raise SceneFileError(f"{path}: [{section}] gate keys require gate_period_s")

    motion = None
    if keyframes:
        if sorted(keyframes) != list(range(len(keyframes))):
            raise SceneFileError(f"{path}: [{section}] keyframes must be numbered 0..n-1")
        motion = []
        for i in range(len(keyframes)):
            kf = keyframes[i]
            missing = {"time_s"} - set(kf)
            if missing:
                raise SceneFileError(f"{path}: [{section}] keyframe_{i} missing {missing}")
            motion.append((kf["time_s"], PathHypothesis(
                kf.get("azimuth_deg", az), kf.get("elevation_deg", el),
                kf.get("tof_ns", tof_ns) * 1e-9, kf.get("aod_deg", aod))))

    return ScenePath(
        PathHypothesis(az, el, tof_ns * 1e-9, aod),
        gain=complex(gain),
        tag=items.get("tag", "static").strip(),
        motion=motion,
        gate=gate,
        phase_jitter=_get_float(items, "phase_jitter", 0.0, path, section),
    )


def _parse_persona(section: str, items, path) -> PersonaParams:
    items = dict(items)
    _reject_unknown(section, items, _PERSONA_KEYS, path)
    required = {"elevation_span_deg", "azimuth_span_deg", "gait_period_s"}
    missing = sorted(required - set(items))
    if missing:
        raise SceneFileError(f"{path}: [{section}] missing keys {missing}")
    head_gated = _get_int(items, "head_gated", 0, path, section)
    if head_gated not in (0, 1):
        raise SceneFileError(f"{path}: [{section}] head_gated must be 0 or 1, got {head_gated}")
    return PersonaParams(
        elevation_span_deg=_get_float(items, "elevation_span_deg", None, path, section),
        azimuth_span_deg=_get_float(items, "azimuth_span_deg", None, path, section),
        gait_period_s=_get_float(items, "gait_period_s", None, path, section),
        walk_speed_deg_per_s=_get_float(items, "walk_speed_deg_per_s", 6.0,
                                        path, section),
        start_azimuth_deg=_get_float(items, "start_azimuth_deg", 60.0, path, section),
        center_elevation_deg=_get_float(items, "center_elevation_deg", 90.0,
                                        path, section),
        gain_db=_get_float(items, "gain_db", 0.0, path, section),
        tof_ns=_get_float(items, "tof_ns", 30.0, path, section),
        aod_deg=_get_float(items, "aod_deg", 90.0, path, section),
        leg_duty=_get_float(items, "leg_duty", 0.5, path, section),
        head_gated=bool(head_gated),
    )
