import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wivision import (
    ArrayGeometry,
    CsifFormatError,
    PathHypothesis,
    Scene,
    SceneFileError,
    ScenePath,
    Spectrum2D,
    inject_phase_offsets,
    load_scene,
    read_csif,
    simulate,
    write_csif,
)
from wivision.csif import packet_size_bytes
from wivision.export import _csv_rows, read_spectrum_csv, write_pgm, write_spectrum_csv


@pytest.fixture
def stream(cfg, small_geom):
    scene = Scene((ScenePath(PathHypothesis(70, 60, 20e-9, 80), phase_jitter=0.5),),
                  snr_db=18.0, duration_s=0.02, rng_seed=4)
    return simulate(scene, cfg, small_geom)


class TestCsif:
    def test_roundtrip_preserves_f32_payload(self, stream, tmp_path):
        path = tmp_path / "s.csif"
        write_csif(stream, path)
        back = read_csif(path, geometry=stream.geometry)
        np.testing.assert_array_equal(back.tensors.astype(np.complex64),
                                      stream.tensors.astype(np.complex64))
        np.testing.assert_array_equal(back.timestamps_ns, stream.timestamps_ns)
        assert back.config.carrier_hz == stream.config.carrier_hz

    def test_second_write_is_byte_identical(self, stream, tmp_path):
        a, b = tmp_path / "a.csif", tmp_path / "b.csif"
        write_csif(stream, a)
        write_csif(stream, b)
        assert a.read_bytes() == b.read_bytes()

    def test_packet_size_arithmetic(self):
        assert packet_size_bytes(9, 3, 30) == 8 + 2 * 810 * 4 == 6488

    def test_full_array_packet_layout(self, cfg, tmp_path):
        geom = ArrayGeometry.l_shaped(cfg.wavelength_m / 2.0)
        scene = Scene((ScenePath(PathHypothesis(90, 90)),), duration_s=0.002)
        stream = simulate(scene, cfg, geom)
        path = tmp_path / "full.csif"
        write_csif(stream, path)
        assert path.stat().st_size == 36 + 2 * 6488

    def test_truncated_file_names_packet(self, stream, tmp_path):
        path = tmp_path / "t.csif"
        write_csif(stream, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(CsifFormatError, match=f"packet {len(stream) - 1}"):
            read_csif(path)

    def test_bad_magic(self, stream, tmp_path):
        path = tmp_path / "m.csif"
        write_csif(stream, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XSIF"
        path.write_bytes(bytes(raw))
        with pytest.raises(CsifFormatError, match="magic"):
            read_csif(path)

    def test_nonmonotone_timestamps(self, stream, tmp_path):
        path = tmp_path / "ts.csif"
        write_csif(stream, path)
        raw = bytearray(path.read_bytes())
        per = packet_size_bytes(*stream.tensors.shape[1:])
        # overwrite packet 1's timestamp with packet 0's
        struct.pack_into("<Q", raw, 36 + per, int(stream.timestamps_ns[0]))
        path.write_bytes(bytes(raw))
        with pytest.raises(CsifFormatError, match="timestamp"):
            read_csif(path)

    def test_default_geometry_reconstruction(self, cfg, tmp_path):
        geom = ArrayGeometry.l_shaped(cfg.wavelength_m / 2.0)
        scene = Scene((ScenePath(PathHypothesis(90, 90)),), duration_s=0.002)
        stream = simulate(scene, cfg, geom)
        path = tmp_path / "g.csif"
        write_csif(stream, path)
        back = read_csif(path)
        np.testing.assert_allclose(back.geometry.rx_positions, geom.rx_positions)

    def test_geometry_mismatch_rejected(self, stream, tmp_path, cfg):
        path = tmp_path / "mm.csif"
        write_csif(stream, path)
        wrong = ArrayGeometry.l_shaped(cfg.wavelength_m / 2.0, arm_x=3, arm_z=3,
                                       n_tx=1, n_subcarriers=4)
        with pytest.raises(CsifFormatError, match="geometry"):
            read_csif(path, geometry=wrong)


def write_csif_per_packet(stream, path):
    """The per-packet writer the record-array writer replaced, kept as an oracle."""
    geom = stream.geometry
    header = struct.pack("<4sHHHHddQ", b"CSIF", 1, geom.n_rx, geom.n_tx,
                         geom.n_subcarriers, stream.config.carrier_hz,
                         stream.config.subcarrier_spacing_hz, len(stream))
    tensors = stream.tensors.reshape(len(stream), -1)
    iq = np.empty((len(stream), tensors.shape[1] * 2), dtype="<f4")
    iq[:, 0::2] = tensors.real
    iq[:, 1::2] = tensors.imag
    with open(path, "wb") as fh:
        fh.write(header)
        for ts, row in zip(stream.timestamps_ns.astype("<u8"), iq):
            fh.write(struct.pack("<Q", int(ts)))
            fh.write(row.tobytes())


class TestCsifRecordLayout:
    @pytest.fixture
    def offset_stream(self, stream):
        return inject_phase_offsets(stream, seed=3)

    def test_writer_matches_per_packet_loop(self, offset_stream, tmp_path):
        new, old = tmp_path / "new.csif", tmp_path / "old.csif"
        write_csif(offset_stream, new)
        write_csif_per_packet(offset_stream, old)
        assert new.read_bytes() == old.read_bytes()

    def test_reader_matches_float_interleave(self, offset_stream, tmp_path):
        path = tmp_path / "s.csif"
        write_csif(offset_stream, path)
        n, shape = len(offset_stream), offset_stream.tensors.shape
        record = np.dtype([("ts", "<u8"), ("iq", "<f4", (2 * math.prod(shape[1:]),))])
        iq = np.frombuffer(path.read_bytes()[36:], dtype=record)["iq"].astype(np.float64)
        expected = (iq[:, 0::2] + 1j * iq[:, 1::2]).reshape(shape)
        back = read_csif(path, geometry=offset_stream.geometry)
        assert np.array_equal(back.tensors, expected)
        assert len(back) == n and back.tensors.dtype == complex
        assert not back.tensors.flags.writeable

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_payload_names_packet(self, stream, tmp_path, value):
        path = tmp_path / "nan.csif"
        write_csif(stream, path)
        raw = bytearray(path.read_bytes())
        per = packet_size_bytes(*stream.tensors.shape[1:])
        for packet in (3, 5):
            # the imaginary part of the packet's second value
            struct.pack_into("<f", raw, 36 + packet * per + 8 + 12, value)
        path.write_bytes(bytes(raw))
        with pytest.raises(CsifFormatError, match="packet 3: tensor contains non-finite"):
            read_csif(path)

    def test_oversized_dimensions(self, tmp_path):
        path = tmp_path / "huge.csif"
        path.write_bytes(struct.pack("<4sHHHHddQ", b"CSIF", 1, 0xFFFF, 0xFFFF, 0xFFFF,
                                     5e9, 312.5e3, 1))
        with pytest.raises(CsifFormatError, match="invalid dimensions"):
            read_csif(path)

    @pytest.mark.parametrize("value", [math.nan, 0.0, -1.0])
    @pytest.mark.parametrize("field", ["carrier_hz", "subcarrier_spacing_hz"])
    def test_bad_channel_header(self, tmp_path, field, value):
        path = tmp_path / "bad.csif"
        channel = {"carrier_hz": 5.18e9, "subcarrier_spacing_hz": 1.25e6, field: value}
        path.write_bytes(struct.pack("<4sHHHHddQ", b"CSIF", 1, 3, 2, 8,
                                     channel["carrier_hz"],
                                     channel["subcarrier_spacing_hz"], 0))
        with pytest.raises(CsifFormatError,
                           match=f"header {field} must be finite and positive, got {value}"):
            read_csif(path)


def repr_rows(values) -> bytes:
    """The CSV rows of ``values`` as the original writer made them, with ``repr``."""
    return "".join(f"{i // 180 + 1},{i % 180 + 1},{v!r}\n"
                   for i, v in enumerate(np.asarray(values, dtype=float).tolist())).encode()


def edge_floats() -> np.ndarray:
    """Finite doubles >= 0 where shortest round-trip formatting is easy to get wrong."""
    values = np.concatenate([
        [0.0, 1e-4, 1e16, 2.0 ** 53, sys.float_info.max,
         5.5700836480063944e16,  # an interval end is a shorter decimal; c is even
         9845058151738.812],     # s and s + 1 are equally close; the even one wins
        np.ldexp(1.0, np.arange(-1074, 1024)),  # 5e-324, 2^-1022, ...: spacing changes
        [float(f"1e{k}") for k in range(-323, 309)],
        np.arange(1.0, 5000.0),
    ])
    below_max = values[values < sys.float_info.max]
    near = np.unique(np.concatenate([values, np.nextafter(values, 0),
                                     np.nextafter(below_max, np.inf)]))
    return np.append(near, -0.0)  # after np.unique, which counts -0.0 as 0.0


class TestCsvFormatter:
    """``_csv_rows`` must write every power exactly as ``repr`` does."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=40))
    def test_powers_are_repr(self, values):
        assert _csv_rows(np.array(values)) == repr_rows(values)

    def test_random_normal_bit_patterns(self):
        rng = np.random.default_rng(20201)
        bits = rng.integers(1 << 52, 0x7FF << 52, (7, 180 * 180), dtype=np.uint64)
        for values in bits.view(np.float64):  # 226,800 values
            assert _csv_rows(values) == repr_rows(values)


class TestSpectrumExport:
    def test_all_zero_pgm(self, tmp_path):
        path = tmp_path / "z.pgm"
        write_pgm(Spectrum2D(np.zeros((180, 180))), path)
        raw = path.read_bytes()
        header, pixels = raw.split(b"\n255\n", 1)
        assert header == b"P5\n180 180"
        assert pixels == bytes(180 * 180)

    def test_single_bin_pgm(self, tmp_path):
        grid = np.zeros((180, 180))
        grid[59, 44] = 7.5  # azimuth 60, elevation 45
        path = tmp_path / "p.pgm"
        write_pgm(Spectrum2D(grid), path)
        pixels = np.frombuffer(path.read_bytes().split(b"\n255\n", 1)[1],
                               dtype=np.uint8).reshape(180, 180)
        assert (pixels == 255).sum() == 1
        # row 0 is elevation 180: elevation 45 lands on row 135, azimuth col 59
        assert pixels[180 - 45, 59] == 255

    @pytest.mark.filterwarnings("error")
    def test_subnormal_peak_pgm(self, tmp_path):
        # 255 / 1e-310 overflows; the peak still maps to 255
        grid = np.zeros((180, 180))
        grid[59, 44] = 1e-310
        grid[10, 10] = 0.5e-310
        path = tmp_path / "faint.pgm"
        write_pgm(Spectrum2D(grid), path)
        pixels = np.frombuffer(path.read_bytes().split(b"\n255\n", 1)[1],
                               dtype=np.uint8).reshape(180, 180)
        assert pixels[180 - 45, 59] == 255
        assert pixels[180 - 11, 10] == 128
        assert (pixels > 0).sum() == 2

    def test_csv_row_count_and_roundtrip(self, tmp_path, rng):
        spec = Spectrum2D(rng.uniform(0, 9, (180, 180)))
        path = tmp_path / "s.csv"
        write_spectrum_csv(spec, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "azimuth,elevation,power"
        assert len(lines) == 1 + 32400
        back = read_spectrum_csv(path)
        np.testing.assert_array_equal(back.grid, spec.grid)

    def test_csv_bytes_match_row_loop(self, tmp_path, rng):
        # the original one-row-at-a-time writer is the byte-level oracle
        def row_loop(spec, path):
            az = np.repeat(np.arange(1, 181), 180)
            el = np.tile(np.arange(1, 181), 180)
            with open(path, "w", encoding="ascii") as fh:
                fh.write("azimuth,elevation,power\n")
                for a, e, p in zip(az, el, spec.grid.reshape(-1)):
                    fh.write(f"{a},{e},{float(p)!r}\n")

        grid = rng.uniform(0, 9, (180, 180))
        # 1.8e308 itself overflows to inf, which Spectrum2D rejects; the largest
        # finite double stands in for it
        grid.flat[:6] = [0.0, 1e-05, 3.0, 1e16, 5e-324, 1.7976931348623157e308]
        edges = edge_floats()
        grid.flat[6:6 + edges.size] = edges
        spec = Spectrum2D(grid)
        write_spectrum_csv(spec, tmp_path / "fast.csv")
        row_loop(spec, tmp_path / "loop.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()



SCENE_TEXT = """
[channel]
carrier_hz = 5.18e9
subcarrier_spacing_hz = 1.25e6

[geometry]
arm_x = 2
arm_z = 2
n_tx = 2
n_subcarriers = 8

[simulation]
snr_db = inf
packet_rate_hz = 1000
duration_s = 0.05
seed = 3

[path:los]
tag = los
azimuth_deg = 90
elevation_deg = 90
tof_ns = 5
aod_deg = 90
gain_db = 0

[path:wall]
tag = static
azimuth_deg = 120
elevation_deg = 80
tof_ns = 30
aod_deg = 110
gain_db = -6
phase_jitter = 1.0
gate_period_s = 0.2
gate_duty = 0.5
"""


class TestSceneFile:
    def test_parse_and_simulate(self, tmp_path):
        path = tmp_path / "scene.ini"
        path.write_text(SCENE_TEXT)
        bundle = load_scene(path)
        assert bundle.geometry.n_rx == 3
        assert bundle.scene.duration_s == 0.05
        assert len(bundle.scene.paths) == 2
        assert bundle.scene.paths[1].gate.period_s == 0.2
        stream = simulate(bundle.scene, bundle.config, bundle.geometry)
        assert len(stream) == 50

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "scene.ini"
        path.write_text(SCENE_TEXT + "\n[path:bad]\nazimuth_degrees = 10\n")
        with pytest.raises(SceneFileError, match="azimuth_degrees"):
            load_scene(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "scene.ini"
        path.write_text(SCENE_TEXT + "\n[mystery]\nx = 1\n")
        with pytest.raises(SceneFileError, match="mystery"):
            load_scene(path)

    def test_keyframes(self, tmp_path):
        text = SCENE_TEXT + """
[path:walker]
tag = human
azimuth_deg = 50
elevation_deg = 100
tof_ns = 40
aod_deg = 90
keyframe_0_time_s = 0.0
keyframe_0_azimuth_deg = 50
keyframe_1_time_s = 0.05
keyframe_1_azimuth_deg = 60
"""
        path = tmp_path / "scene.ini"
        path.write_text(text)
        bundle = load_scene(path)
        walker = bundle.scene.paths[2]
        az, _, _, _ = walker.hypothesis_at(np.array([0.0, 0.025, 0.05]))
        np.testing.assert_allclose(az, [50.0, 55.0, 60.0])

    def test_persona_section_expands_to_paths(self, tmp_path):
        text = """
[simulation]
duration_s = 1.0

[persona:alice]
elevation_span_deg = 30
azimuth_span_deg = 12
gait_period_s = 1.0
"""
        path = tmp_path / "scene.ini"
        path.write_text(text)
        bundle = load_scene(path)
        assert len(bundle.scene.paths) == 4
        assert all(p.tag == "human" for p in bundle.scene.paths)

    def test_empty_scene_rejected(self, tmp_path):
        path = tmp_path / "scene.ini"
        path.write_text("[simulation]\nduration_s = 1.0\n")
        with pytest.raises(SceneFileError, match="no paths"):
            load_scene(path)

    def test_infinite_snr_parses(self, tmp_path):
        path = tmp_path / "scene.ini"
        path.write_text(SCENE_TEXT)
        assert math.isinf(load_scene(path).scene.snr_db)
