"""Scene description files: INI-style sections with unit-suffixed keys.

Sections:

* ``[channel]``    ``carrier_hz``, ``subcarrier_spacing_hz``, ``tx_spacing_m``
* ``[geometry]``   ``layout`` (l_shape), ``arm_x``, ``arm_z``, ``spacing_m``, ``n_tx``,
                   ``n_subcarriers``, or explicit ``rx_<i>_m`` = x,y,z rows
* ``[simulation]`` ``snr_db``, ``packet_rate_hz``, ``duration_s``, ``seed``
* ``[path:NAME]``  ``tag``, ``azimuth_deg``, ``elevation_deg``, ``tof_ns``, ``aod_deg``,
                   ``gain_db``, ``phase_deg``, ``phase_jitter``, ``gate_period_s``,
                   ``gate_duty``, ``gate_phase_s``, and ``keyframe_<i>_time_s``,
                   ``keyframe_<i>_azimuth_deg``, ``keyframe_<i>_elevation_deg``,
                   ``keyframe_<i>_tof_ns``, ``keyframe_<i>_aod_deg`` trajectory rows
* ``[persona:NAME]`` ``elevation_span_deg``, ``azimuth_span_deg``, ``gait_period_s``,
                   ``walk_speed_deg_per_s``, ``start_azimuth_deg``, ``center_elevation_deg``,
                   ``gain_db``, ``tof_ns``, ``aod_deg``, ``leg_duty``, ``head_gated`` (0 or 1)

Unknown sections or keys are rejected.  Numbers must be finite; only
``snr_db`` may be ``inf``.  All sections are optional; missing values fall back
to the defaults of the model they configure.  Persona sections expand into
walking body-part paths and are appended to any explicit paths.

The channel and geometry reach the imaging stages through the capture: CSIF
stores the carrier, the subcarrier spacing, ``tx_spacing_m`` and the rx
positions that a scene renders with.
"""

from __future__ import annotations

import configparser
import math
import re
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace

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
_TEXT_KEYS = {"layout", "tag"}
_INT_KEYS = {"arm_x", "arm_z", "n_tx", "n_subcarriers", "seed", "head_gated"}
_MAY_BE_INF = {"snr_db"}
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


def load_scene(path) -> SceneBundle:
    """Parse a scene file; it must define at least one path or persona."""
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
        cfg = ChannelConfig(**_values(sections.pop("channel", {}), _CHANNEL_KEYS))
    with _section(path, "geometry"):
        geom = _parse_geometry(sections.pop("geometry", {}), cfg)
    with _section(path, "simulation"):
        values = _values(sections.pop("simulation", {}), _SIMULATION_KEYS)
        if "seed" in values:
            values["rng_seed"] = values.pop("seed")
        sim = Scene((), **values)

    paths: list[ScenePath] = []
    personas: list[tuple[str, PersonaParams]] = []
    for name in list(sections):
        with _section(path, name):
            if name.startswith("path:"):
                paths.append(_parse_path(sections.pop(name)))
            elif name.startswith("persona:"):
                personas.append((name, _parse_persona(sections.pop(name))))
    if sections:
        raise SceneFileError(f"{path}: unknown sections {sorted(sections)}")

    for name, persona in personas:
        with _section(path, name):
            walk = human_walk_preset(persona, duration_s=sim.duration_s,
                                     packet_rate_hz=sim.packet_rate_hz,
                                     snr_db=sim.snr_db, rng_seed=sim.rng_seed)
        paths.extend(walk.paths)
    if not paths:
        raise SceneFileError(f"{path}: scene defines no paths or personas")

    with _section(path):
        scene = replace(sim, paths=tuple(paths))
    return SceneBundle(cfg, geom, scene)


@contextmanager
def _section(path, section: str | None = None):
    """Re-raise a ``ValueError`` as a :class:`SceneFileError` naming the file.

    The message starts ``<path>: [<section>]``, or ``<path>:`` for a rule on
    the whole scene.
    """
    try:
        yield
    except ValueError as exc:
        where = f"{path}: [{section}]" if section else f"{path}:"
        raise SceneFileError(f"{where} {exc}") from exc


def _value(key: str, text: str):
    """``text`` read as the type of ``key``: text, an integer or a finite float."""
    text = text.strip()
    if key in _TEXT_KEYS:
        return text
    try:
        number = float(text)
    except ValueError:
        raise ValueError(f"{key} = {text!r} is not a number") from None
    if key in _INT_KEYS:
        if not number.is_integer():
            raise ValueError(f"{key} must be an integer")
        return int(number)
    if key in _MAY_BE_INF and number == math.inf:
        return number
    if not math.isfinite(number):
        allowed = "finite or inf" if key in _MAY_BE_INF else "finite"
        raise ValueError(f"{key} must be {allowed}, got {number}")
    return number


def _values(items, known) -> dict:
    """The keys present in ``items``, each read by :func:`_value`; unknown keys raise."""
    unknown = sorted(set(items) - set(known))
    if unknown:
        raise ValueError(f"unknown keys {unknown}")
    return {key: _value(key, text) for key, text in items.items()}


def _parse_geometry(items, cfg: ChannelConfig) -> ArrayGeometry:
    items = dict(items)
    rx_rows = {int(m.group(1)): items.pop(key)
               for key in list(items) if (m := _RX_ROW_RE.match(key))}
    values = _values(items, _GEOMETRY_KEYS)
    counts = {key: values.pop(key) for key in ("n_tx", "n_subcarriers") if key in values}
    if rx_rows:
        # spacing_m describes no explicit row, so it is ignored next to them
        if values.keys() & {"layout", "arm_x", "arm_z"}:
            raise ValueError("mixes explicit rx rows with a layout")
        if sorted(rx_rows) != list(range(len(rx_rows))):
            raise ValueError("rx rows must be numbered 0..n-1")
        positions = []
        for i in range(len(rx_rows)):
            text = rx_rows[i].strip()
            try:
                x, y, z = (float(p) for p in text.split(","))
            except ValueError:
                raise ValueError(f"rx_{i}_m = {text!r} must be three numbers x,y,z") from None
            positions.append([x, y, z])
        return ArrayGeometry(np.array(positions), **counts)
    layout = values.pop("layout", "l_shape")
    if layout != "l_shape":
        raise ValueError(f"unknown layout {layout!r}")
    spacing = values.pop("spacing_m", cfg.wavelength_m / 2.0)
    return ArrayGeometry.l_shaped(spacing, **values, **counts)


def _hypothesis(values: dict, **fallback) -> PathHypothesis:
    """A path hypothesis from ``values``, whose ``tof_ns`` becomes ``tof_s``."""
    if "tof_ns" in values:
        values["tof_s"] = values.pop("tof_ns") * 1e-9
    return PathHypothesis(**{**fallback, **values})


def _parse_path(items) -> ScenePath:
    items = dict(items)
    keyframes: dict[int, dict[str, float]] = {}
    for key in list(items):
        if m := _KEYFRAME_RE.match(key):
            keyframes.setdefault(int(m.group(1)), {})[m.group(2)] = _value(key, items.pop(key))
    values = _values(items, _PATH_KEYS)

    gate = {key.removeprefix("gate_"): values.pop(key)
            for key in ("gate_period_s", "gate_duty", "gate_phase_s") if key in values}
    if gate and "period_s" not in gate:
        raise ValueError("gate keys require gate_period_s")
    if "gain_db" in values or "phase_deg" in values:
        # 0 dB and 0 degrees stand in for whichever of the two is not given
        amplitude = amplitude_from_db(values.pop("gain_db", 0.0))
        phase = np.exp(1j * np.deg2rad(values.pop("phase_deg", 0.0)))
        values["gain"] = complex(amplitude * phase)
    hypothesis = _hypothesis(
        {key: values.pop(key) for key in ("azimuth_deg", "elevation_deg", "tof_ns", "aod_deg")
         if key in values},
        azimuth_deg=90.0, elevation_deg=90.0)

    motion = None
    if keyframes:
        if sorted(keyframes) != list(range(len(keyframes))):
            raise ValueError("keyframes must be numbered 0..n-1")
        motion = []
        for i in range(len(keyframes)):
            kf = keyframes[i]
            if "time_s" not in kf:
                raise ValueError(f"keyframe_{i} missing {{'time_s'}}")
            motion.append((kf.pop("time_s"),
                           _hypothesis(kf, **asdict(hypothesis))))

    return ScenePath(hypothesis, motion=motion, gate=GainGate(**gate) if gate else None,
                     **values)


def _parse_persona(items) -> PersonaParams:
    values = _values(items, _PERSONA_KEYS)
    missing = sorted({"elevation_span_deg", "azimuth_span_deg", "gait_period_s"} - set(values))
    if missing:
        raise ValueError(f"missing keys {missing}")
    if "head_gated" in values:
        if values["head_gated"] not in (0, 1):
            raise ValueError(f"head_gated must be 0 or 1, got {values['head_gated']}")
        values["head_gated"] = bool(values["head_gated"])
    return PersonaParams(**values)
