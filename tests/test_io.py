import math
import re
import struct
import sys
import tracemalloc
import warnings
from configparser import ConfigParser
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from wivision import (
    ArrayGeometry,
    ChannelConfig,
    CsifFormatError,
    GainGate,
    PathHypothesis,
    Scene,
    SceneFileError,
    ScenePath,
    Spectrum2D,
    default_geometry,
    inject_phase_offsets,
    load_scene,
    read_csif,
    sanitize,
    simulate,
    six_reflector_scene,
    windows,
    write_csif,
)
from wivision import scenefile
from wivision.csif import _HEADER, packet_size_bytes
from wivision.export import _csv_rows, read_spectrum_csv, write_pgm, write_spectrum_csv
from wivision.stream import CsiStream, block_len, degrade_stream


@pytest.fixture
def stream(cfg, small_geom):
    scene = Scene((ScenePath(PathHypothesis(70, 60, 20e-9, 80), phase_jitter=0.5),),
                  snr_db=18.0, duration_s=0.02, rng_seed=4)
    return simulate(scene, cfg, small_geom)


def payload_offset(path, stream) -> int:
    """Where the packet records of the CSIF file at ``path``, holding ``stream``, start."""
    return path.stat().st_size - len(stream) * packet_size_bytes(*stream.tensors.shape[1:])


class TestCsif:
    def test_roundtrip_preserves_f32_payload(self, stream, tmp_path):
        path = tmp_path / "s.csif"
        write_csif(stream, path)
        back = read_csif(path)
        np.testing.assert_array_equal(back.tensors.astype(np.complex64),
                                      stream.tensors.astype(np.complex64))
        np.testing.assert_array_equal(back.timestamps_ns, stream.timestamps_ns)
        assert back.config == stream.config

    def test_second_write_is_byte_identical(self, stream, tmp_path):
        a, b = tmp_path / "a.csif", tmp_path / "b.csif"
        write_csif(stream, a)
        write_csif(stream, b)
        assert a.read_bytes() == b.read_bytes()

    def test_value_beyond_complex64_names_packet(self, stream, tmp_path):
        tensors = stream.tensors.copy()
        tensors[2, 0, 0, 1] = 1e300j
        path = tmp_path / "big.csif"
        with pytest.raises(CsifFormatError,
                           match=r"^packet 2: tensor values exceed the complex64 range$"):
            write_csif(replace(stream, tensors=tensors), path)
        assert not path.exists()

    def test_packet_size_arithmetic(self):
        assert packet_size_bytes(9, 3, 30) == 8 + 2 * 810 * 4 == 6488

    def test_full_array_packet_layout(self, cfg, tmp_path):
        geom = ArrayGeometry.l_shaped(cfg.wavelength_m / 2.0)
        scene = Scene((ScenePath(PathHypothesis(90, 90)),), duration_s=0.002)
        stream = simulate(scene, cfg, geom)
        path = tmp_path / "full.csif"
        write_csif(stream, path)
        # the version 1 header, the 9-element layout block, then the packets
        assert path.stat().st_size == 36 + 8 + 9 * 24 + 2 * 6488

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
        struct.pack_into("<Q", raw, payload_offset(path, stream) + per,
                         int(stream.timestamps_ns[0]))
        path.write_bytes(bytes(raw))
        with pytest.raises(CsifFormatError, match="timestamp"):
            read_csif(path)

    @pytest.mark.parametrize("first", [0, 3])
    def test_timestamp_beyond_int64_names_packet(self, stream, tmp_path, first):
        """Packets ``first`` on lie at 2**63 + k * 10**6, increasing as u64; cast
        to int64 they would read as increasing negative times."""
        path = tmp_path / "late.csif"
        write_csif(stream, path)
        raw = bytearray(path.read_bytes())
        per = packet_size_bytes(*stream.tensors.shape[1:])
        for k in range(first, len(stream)):
            struct.pack_into("<Q", raw, payload_offset(path, stream) + k * per,
                             2**63 + k * 10**6)
        path.write_bytes(bytes(raw))
        with pytest.raises(CsifFormatError, match=(
                f"^packet {first}: timestamp {2**63 + first * 10**6} is beyond the "
                "int64 range$")):
            read_csif(path)

    def test_negative_timestamp_names_packet(self, stream, tmp_path):
        """CSIF stores u64 timestamps, so a stream that starts before 0 is
        refused before the file is opened, not wrapped."""
        path = tmp_path / "early.csif"
        early = replace(stream, timestamps_ns=stream.timestamps_ns - 5_000_000)
        with pytest.raises(CsifFormatError, match=(
                "^packet 0: timestamp -5000000 is negative, and CSIF stores u64$")):
            write_csif(early, path)
        assert not path.exists()

    def test_default_geometry_reconstruction(self, cfg, tmp_path):
        geom = ArrayGeometry.l_shaped(cfg.wavelength_m / 2.0)
        scene = Scene((ScenePath(PathHypothesis(90, 90)),), duration_s=0.002)
        stream = simulate(scene, cfg, geom)
        path = tmp_path / "g.csif"
        write_csif(stream, path)
        back = read_csif(path)
        np.testing.assert_allclose(back.geometry.rx_positions, geom.rx_positions)

    def test_layout_roundtrip(self, tmp_path):
        """A version 2 file gives back its exact channel and antenna layout."""
        cfg = ChannelConfig(carrier_hz=2.437e9, tx_spacing_m=0.02)
        geom = ArrayGeometry(np.array([[0.0, 0.0, 0.0], [0.0311, 0.0, 0.0],
                                       [0.07, 0.0, -0.013], [-1e-3, 0.0, 0.0625]]),
                             n_tx=2, n_subcarriers=5)
        stream = simulate(Scene((ScenePath(PathHypothesis(70, 60, 20e-9, 80)),),
                                duration_s=0.005), cfg, geom)
        path = tmp_path / "layout.csif"
        write_csif(stream, path)
        back = read_csif(path)
        assert back.config == cfg and back.config.tx_spacing_m == 0.02
        assert back.geometry.rx_positions.tobytes() == geom.rx_positions.tobytes()
        assert (back.geometry.n_tx, back.geometry.n_subcarriers) == (2, 5)
        assert payload_offset(path, stream) == 36 + 8 + 4 * 24

    def test_version_1_reads_on_default_layout(self, cfg, stream, tmp_path):
        """A version 1 file, which has no layout block, reads on the default
        L-array of its dimensions at half-wavelength tx spacing."""
        path = tmp_path / "v2.csif"
        write_csif(stream, path)
        records = path.read_bytes()[payload_offset(path, stream):]
        v1 = tmp_path / "v1.csif"
        v1.write_bytes(struct.pack("<4sHHHHddQ", b"CSIF", 1, 3, 2, 8, cfg.carrier_hz,
                                   cfg.subcarrier_spacing_hz, len(stream)) + records)
        back = read_csif(v1)
        assert back.config == cfg and back.config.tx_spacing_m == cfg.wavelength_m / 2
        np.testing.assert_array_equal(back.geometry.rx_positions,
                                      default_geometry(cfg, n_rx=3).rx_positions)
        assert back.tensors.tobytes() == read_csif(path).tensors.tobytes()

    @pytest.mark.parametrize("index, value, message", [
        (0, math.nan, "header tx_spacing_m must be finite and positive, got nan"),
        (0, math.inf, "header tx_spacing_m must be finite and positive, got inf"),
        (0, -math.inf, "header tx_spacing_m must be finite and positive, got -inf"),
        (0, 0.0, "header tx_spacing_m must be finite and positive, got 0.0"),
        (0, -0.02, "header tx_spacing_m must be finite and positive, got -0.02"),
        (1 + 3 * 2 + 0, math.nan, "rx positions must be finite"),
        (1 + 3 * 1 + 2, -math.inf, "rx positions must be finite"),
        (1 + 3 * 2 + 1, 0.01, r"rx positions must lie in the y == 0 plane"),
    ], ids=["tx-nan", "tx-inf", "tx-minus-inf", "tx-zero", "tx-negative",
            "position-nan", "position-inf", "off-plane"])
    def test_malformed_layout_names_field(self, stream, tmp_path, index, value, message):
        """``index`` counts the f64 values of the layout block: the tx spacing,
        then x, y, z of each rx element."""
        path = tmp_path / "layout.csif"
        write_csif(stream, path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<d", raw, _HEADER.size + 8 * index, value)
        path.write_bytes(bytes(raw))
        with pytest.raises(CsifFormatError, match=f"^{re.escape(message)}$"):
            read_csif(path)

    @pytest.mark.parametrize("kept", [0, 8, 79])
    def test_short_layout_block(self, stream, tmp_path, kept):
        path = tmp_path / "short.csif"
        write_csif(stream, path)
        path.write_bytes(path.read_bytes()[:_HEADER.size + kept])
        with pytest.raises(CsifFormatError, match=re.escape(
                f"file too short for the layout block of 3 rx elements ({kept} of "
                "80 bytes)")):
            read_csif(path)


@pytest.fixture(scope="module")
def small_captures(tmp_path_factory):
    """``(scratch_path, {version: bytes})``: 20 packets on 3 rx x 2 tx x 4
    subcarriers as a version 2 CSIF file, and its records re-headed as version 1."""
    cfg = ChannelConfig()
    geom = ArrayGeometry.l_shaped(cfg.wavelength_m / 2.0, arm_x=2, arm_z=2, n_tx=2,
                                  n_subcarriers=4)
    scene = Scene((ScenePath(PathHypothesis(70, 60, 20e-9, 80), phase_jitter=0.5),),
                  snr_db=18.0, duration_s=0.02, rng_seed=4)
    path = tmp_path_factory.mktemp("mutations") / "capture.csif"
    write_csif(simulate(scene, cfg, geom), path)
    v2 = path.read_bytes()
    assert len(v2) == 4116
    v1 = v2[:4] + struct.pack("<H", 1) + v2[6:_HEADER.size] + v2[_HEADER.size + 80:]
    return path, {1: v1, 2: v2}


class TestCsifMutations:
    @settings(max_examples=300, deadline=None)
    @given(version=st.sampled_from([1, 2]), data=st.data())
    def test_mutated_file_reads_or_raises_format_error(self, small_captures, version,
                                                       data):
        """A truncated or extended file, or one with up to 8 bytes overwritten
        in its header, layout block or first record, reads as a stream or
        raises CsifFormatError, and warns of nothing."""
        path, captures = small_captures
        raw = bytearray(captures[version])
        edit = data.draw(st.sampled_from(["truncate", "append", "overwrite"]))
        if edit == "truncate":
            raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
        elif edit == "append":
            raw += data.draw(st.binary(min_size=1, max_size=400))
        else:
            first_record_end = len(raw) - 19 * packet_size_bytes(3, 2, 4)
            start = data.draw(st.integers(0, first_record_end - 1))
            patch = data.draw(st.binary(min_size=1, max_size=8))
            raw[start:start + len(patch)] = patch
        path.write_bytes(bytes(raw))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                assert isinstance(read_csif(path), CsiStream)
            except CsifFormatError:
                pass


def write_csif_per_packet(stream, path):
    """The per-packet writer the record-array writer replaced, kept as an oracle."""
    geom = stream.geometry
    header = struct.pack("<4sHHHHddQd", b"CSIF", 2, geom.n_rx, geom.n_tx,
                         geom.n_subcarriers, stream.config.carrier_hz,
                         stream.config.subcarrier_spacing_hz, len(stream),
                         stream.config.tx_spacing_m)
    header += struct.pack(f"<{3 * geom.n_rx}d", *geom.rx_positions.reshape(-1))
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
        iq = np.frombuffer(path.read_bytes()[payload_offset(path, offset_stream):],
                           dtype=record)["iq"].astype(np.float64)
        expected = (iq[:, 0::2] + 1j * iq[:, 1::2]).reshape(shape)
        back = read_csif(path)
        assert np.array_equal(back.tensors, expected)
        assert len(back) == n and back.tensors.dtype == np.complex64
        assert not back.tensors.flags.writeable

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_payload_names_packet(self, stream, tmp_path, value):
        path = tmp_path / "nan.csif"
        write_csif(stream, path)
        raw = bytearray(path.read_bytes())
        per = packet_size_bytes(*stream.tensors.shape[1:])
        for packet in (3, 5):
            # the imaginary part of the packet's second value
            struct.pack_into("<f", raw, payload_offset(path, stream) + packet * per + 8 + 12,
                             value)
        path.write_bytes(bytes(raw))
        with pytest.raises(CsifFormatError, match="packet 3: tensor contains non-finite"):
            read_csif(path)

    def test_oversized_dimensions(self, tmp_path):
        path = tmp_path / "huge.csif"
        path.write_bytes(struct.pack("<4sHHHHddQ", b"CSIF", 1, 0xFFFF, 0xFFFF, 0xFFFF,
                                     5e9, 312.5e3, 1))
        with pytest.raises(CsifFormatError, match="invalid dimensions"):
            read_csif(path)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
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


@pytest.fixture(scope="module")
def capture_file(tmp_path_factory):
    """0.25 s of the six-reflector scene with phase offsets on the full array,
    12.5 blocks of packets, as a CSIF file."""
    cfg = ChannelConfig()
    stream = simulate(six_reflector_scene(snr_db=20.0, duration_s=0.25), cfg,
                      default_geometry(cfg))
    path = tmp_path_factory.mktemp("capture") / "six_reflector.csif"
    write_csif(inject_phase_offsets(stream, seed=8), path)
    return path


class TestCsifMemory:
    def test_read_peak_is_the_payload(self, capture_file):
        n, *dims = reference.read_csif(capture_file).tensors.shape
        payload = n * packet_size_bytes(*dims)
        tracemalloc.start()
        try:
            back = read_csif(capture_file)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert back.tensors.dtype == np.complex64
        assert peak < 1.1 * payload

    def test_write_extra_peak_is_under_two_blocks(self, capture_file, tmp_path):
        stream = reference.read_csif(capture_file)
        record = packet_size_bytes(*stream.tensors.shape[1:])
        assert len(stream) > 10 * block_len(stream.geometry.dim)
        tracemalloc.start()
        try:
            write_csif(stream, tmp_path / "again.csif")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * block_len(stream.geometry.dim) * record
        assert (tmp_path / "again.csif").read_bytes() == capture_file.read_bytes()

    def test_overflow_in_a_later_block_names_packet(self, capture_file, tmp_path):
        stream = read_csif(capture_file)
        tensors = stream.tensors.astype(complex)
        step = block_len(stream.geometry.dim)
        tensors[2 * step + 3, 1, 2, 4] = 1e300
        tensors[3 * step, 0, 0, 0] = 1e300j
        path = tmp_path / "big.csif"
        with pytest.raises(CsifFormatError, match=f"^packet {2 * step + 3}: tensor values "
                                                  "exceed the complex64 range$"):
            write_csif(replace(stream, tensors=tensors), path)
        assert not path.exists()


class TestComplex64Capture:
    """A capture read at complex64 gives the bits of its complex128 copy."""

    @pytest.fixture
    def streams(self, capture_file):
        return read_csif(capture_file), reference.read_csif(capture_file)

    def test_sanitize(self, streams):
        held, widened = (sanitize(s).tensors for s in streams)
        assert held.dtype == widened.dtype == complex
        assert held.tobytes() == widened.tobytes()

    @pytest.mark.parametrize("degraded", [False, True])
    def test_windows(self, streams, degraded):
        if degraded:
            streams = tuple(degrade_stream(s) for s in streams)
        held, widened = (windows(s, window_len=1 if degraded else 100, stride=33)
                         for s in streams)
        assert len(held) == len(widened) > 1
        for a, b in zip(held, widened):
            assert a.matrix.dtype == b.matrix.dtype == complex
            assert a.matrix.tobytes() == b.matrix.tobytes()
            assert a.timestamp_ns == b.timestamp_ns


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
        write_pgm(np.zeros((180, 180)), path)
        raw = path.read_bytes()
        header, pixels = raw.split(b"\n255\n", 1)
        assert header == b"P5\n180 180"
        assert pixels == bytes(180 * 180)

    def test_single_bin_pgm(self, tmp_path):
        grid = np.zeros((180, 180))
        grid[59, 44] = 7.5  # azimuth 60, elevation 45
        path = tmp_path / "p.pgm"
        write_pgm(grid, path)
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
        write_pgm(grid, path)
        pixels = np.frombuffer(path.read_bytes().split(b"\n255\n", 1)[1],
                               dtype=np.uint8).reshape(180, 180)
        assert pixels[180 - 45, 59] == 255
        assert pixels[180 - 11, 10] == 128
        assert (pixels > 0).sum() == 2

    @pytest.mark.parametrize("write", [write_pgm, write_spectrum_csv])
    def test_writers_check_the_grid_shape(self, tmp_path, write):
        with pytest.raises(ValueError, match=re.escape(
                "spectrum grid must be 180x180, got (180, 179)")):
            write(np.ones((180, 179)), tmp_path / "frame")
        assert not (tmp_path / "frame").exists()

    def test_csv_row_count_and_roundtrip(self, tmp_path, rng):
        spec = Spectrum2D(rng.uniform(0, 9, (180, 180)))
        path = tmp_path / "s.csv"
        write_spectrum_csv(spec.grid, path)
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
        write_spectrum_csv(spec.grid, tmp_path / "fast.csv")
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


# Every key the scene format has, each set to a valid value that no default
# holds.  RX_ROWS_GEOMETRY swaps the L-shape keys for explicit rows, next to
# which spacing_m is ignored.
LAYOUT_GEOMETRY = """
[geometry]
layout = l_shape
arm_x = 3
arm_z = 2
spacing_m = 0.02
n_tx = 2
n_subcarriers = 4
"""

RX_ROWS_GEOMETRY = """
[geometry]
rx_0_m = 0,0,0
rx_1_m = 0.025,0,0
rx_2_m = 0,0,0.025
spacing_m = 0.02
n_tx = 2
n_subcarriers = 4
"""

EVERY_KEY_SCENE = """
[channel]
carrier_hz = 5.0e9
subcarrier_spacing_hz = 1.0e6
tx_spacing_m = 0.03
""" + LAYOUT_GEOMETRY + """
[simulation]
snr_db = 20
packet_rate_hz = 500
duration_s = 0.2
seed = 5

[path:walker]
tag = human
azimuth_deg = 80
elevation_deg = 100
tof_ns = 25
aod_deg = 70
gain_db = -2
phase_deg = 30
phase_jitter = 0.5
gate_period_s = 0.4
gate_duty = 0.25
gate_phase_s = 0.1
keyframe_0_time_s = 0.0
keyframe_0_azimuth_deg = 80
keyframe_0_elevation_deg = 100
keyframe_0_tof_ns = 25
keyframe_0_aod_deg = 70
keyframe_1_time_s = 0.2
keyframe_1_azimuth_deg = 85
keyframe_1_elevation_deg = 95
keyframe_1_tof_ns = 28
keyframe_1_aod_deg = 75

[persona:alice]
elevation_span_deg = 20
azimuth_span_deg = 8
gait_period_s = 0.8
walk_speed_deg_per_s = 5
start_azimuth_deg = 70
center_elevation_deg = 95
gain_db = -1
tof_ns = 35
aod_deg = 100
leg_duty = 0.4
head_gated = 1
"""


def documented_keys() -> dict[str, set[str]]:
    """Section kind -> the ``key`` literals of its bullet in the scenefile docstring."""
    bullets = re.findall(r"^\* ``\[(\w+)(?::NAME)?\]``(.*?)(?=^\*|^$)",
                         scenefile.__doc__, re.S | re.M)
    return {kind: set(re.findall(r"``([^`]+)``", body)) for kind, body in bullets}


def keys_in(text: str) -> dict[str, set[str]]:
    """Section kind -> the keys a scene text sets, row numbers written ``<i>``."""
    parser = ConfigParser(interpolation=None)
    parser.optionxform = str
    parser.read_string(text)
    return {name.split(":")[0]: {re.sub(r"_\d+_", "_<i>_", key) for key in parser[name]}
            for name in parser.sections()}


class TestSceneFormatDocs:
    def test_docstring_lists_the_parser_keys(self):
        fields = re.search(r"\(([\w|]+)\)\$$", scenefile._KEYFRAME_RE.pattern).group(1)
        assert scenefile._RX_ROW_RE.match("rx_0_m")
        assert documented_keys() == {
            "channel": scenefile._CHANNEL_KEYS,
            "geometry": scenefile._GEOMETRY_KEYS | {"rx_<i>_m"},
            "simulation": scenefile._SIMULATION_KEYS,
            "path": scenefile._PATH_KEYS | {f"keyframe_<i>_{f}" for f in fields.split("|")},
            "persona": scenefile._PERSONA_KEYS,
        }

    def test_every_documented_key_loads(self, tmp_path):
        rows_scene = EVERY_KEY_SCENE.replace(LAYOUT_GEOMETRY, RX_ROWS_GEOMETRY)
        used = keys_in(EVERY_KEY_SCENE)
        used["geometry"] |= keys_in(rows_scene)["geometry"]
        assert used == documented_keys()

        path = tmp_path / "every_key.ini"
        path.write_text(EVERY_KEY_SCENE)
        bundle = load_scene(path)
        assert bundle.config == ChannelConfig(5.0e9, 1.0e6, 0.03)
        assert bundle.geometry.n_rx == 4
        np.testing.assert_array_equal(bundle.geometry.rx_positions[:, 2], [0, 0, 0, 0.02])
        assert (bundle.geometry.n_tx, bundle.geometry.n_subcarriers) == (2, 4)
        scene = bundle.scene
        assert (scene.snr_db, scene.packet_rate_hz, scene.duration_s,
                scene.rng_seed) == (20.0, 500.0, 0.2, 5)
        walker = scene.paths[0]
        assert walker.hypothesis == PathHypothesis(80, 100, 25 * 1e-9, 70)
        assert walker.gain == pytest.approx(10 ** (-2 / 20) * np.exp(1j * np.pi / 6))
        assert (walker.tag, walker.phase_jitter) == ("human", 0.5)
        assert walker.gate == GainGate(0.4, 0.25, 0.1)
        assert walker.motion[1] == (0.2, PathHypothesis(85, 95, 28 * 1e-9, 75))
        assert len(scene.paths) == 5  # the walker plus alice's head, torso and legs

        path.write_text(rows_scene)
        geometry = load_scene(path).geometry
        np.testing.assert_array_equal(
            geometry.rx_positions, [[0, 0, 0], [0.025, 0, 0], [0, 0, 0.025]])
        assert (geometry.n_tx, geometry.n_subcarriers) == (2, 4)
