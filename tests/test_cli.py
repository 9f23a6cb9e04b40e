import argparse
import ast
import logging
import mmap
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import wivision
from wivision import cli, imaging, music
from wivision.csif import _HEADER, packet_size_bytes, read_csif
from wivision.export import write_spectrum_csv
from wivision.scenefile import load_scene
from wivision.cli import EXIT_INPUT, EXIT_OK, EXIT_USAGE, main

SCENE = """
[geometry]
arm_x = 2
arm_z = 2
n_tx = 2
n_subcarriers = 8

[simulation]
snr_db = 25
packet_rate_hz = 1000
duration_s = 0.4
seed = 9

[path:los]
tag = los
azimuth_deg = 90
elevation_deg = 90
tof_ns = 5
aod_deg = 90
phase_jitter = 1.0

[path:mover]
tag = human
azimuth_deg = 60
elevation_deg = 105
tof_ns = 30
aod_deg = 80
gain_db = -3
phase_jitter = 1.0
keyframe_0_time_s = 0.0
keyframe_0_azimuth_deg = 60
keyframe_1_time_s = 0.4
keyframe_1_azimuth_deg = 75
"""


@pytest.fixture
def scene_file(tmp_path):
    p = tmp_path / "scene.ini"
    p.write_text(SCENE)
    return p


def run(*args):
    return main([str(a) for a in args])


# a 4-window scan of the test scene on a small grid
SCAN = ("--window", 100, "--stride", 100, "--tau-grid-ns", "0:40:10",
        "--aod-grid-deg", "60,90,120")


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert run("spectrum") == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_unknown_command_is_1(self):
        assert run("transmogrify") == EXIT_USAGE

    def test_missing_input_is_2(self, tmp_path, capsys):
        assert run("spectrum", "--in", tmp_path / "nope.csif",
                   "--out", tmp_path / "o") == EXIT_INPUT

    def test_bad_scene_is_2(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[simulation]\nduration_s = 1.0\n")
        assert run("simulate", "--scene", bad, "--out", tmp_path / "s.csif") == EXIT_INPUT

    def test_corrupt_csif_is_2(self, tmp_path):
        broken = tmp_path / "broken.csif"
        broken.write_bytes(b"not a csif file")
        assert run("spectrum", "--in", broken, "--out", tmp_path / "o") == EXIT_INPUT

    @pytest.mark.parametrize("command", ["spectrum", "pipeline"])
    @pytest.mark.parametrize("flag, value, reason", [
        ("--tau-grid-ns", "0:10:0", "step must be positive, got 0"),
        ("--tau-grid-ns", "1:2", "expected start:stop:step"),
        ("--tau-grid-ns", "0:1e9:1e-9", "range must hold at most 4096 finite points"),
        ("--aod-grid-deg", "0:inf:1", "range must hold at most 4096 finite points"),
        ("--aod-grid-deg", "inf", "aod_grid_deg must be finite, got [inf]"),
    ])
    def test_malformed_grid_flag_is_1(self, tmp_path, capsys, command, flag, value,
                                      reason):
        # rejected while parsing, before the input is read or any window scanned
        source = ("--in", tmp_path / "nope.csif") if command == "spectrum" else (
            "--scene", tmp_path / "nope.ini")
        assert run(command, *source, "--out", tmp_path / "o", flag, value) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"wivision: error: argument {flag}: {value!r}: {reason}\n")


def non_finite_csif(scene_file, tmp_path):
    """A simulated CSIF stream whose packet 3 holds a NaN."""
    path = tmp_path / "nan.csif"
    assert run("simulate", "--scene", scene_file, "--out", path) == EXIT_OK
    raw = bytearray(path.read_bytes())
    per = packet_size_bytes(3, 2, 8)
    payload = len(raw) - len(read_csif(path)) * per
    struct.pack_into("<f", raw, payload + 3 * per + 8, np.nan)
    path.write_bytes(bytes(raw))
    return path


def run_python(*args, **environ):
    """Run a fresh interpreter that imports wivision from this source tree,
    with ``environ`` added to the environment."""
    src = Path(wivision.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])), **environ)
    return subprocess.run([sys.executable, *map(str, args)],
                          capture_output=True, text=True, env=env)


def run_subprocess(*args, **environ):
    return run_python("-m", "wivision.cli", *args, **environ)


def test_import_loads_no_scipy():
    done = run_python("-c", "import sys, wivision, wivision.cli; print(sorted("
                      "m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert (done.returncode, done.stdout) == (0, "[]\n")


def test_src_imports_are_used():
    """Every name a module of the package imports is used in that module."""
    unused = []
    for path in sorted(Path(wivision.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno}: {name}" for name in bound
                       if name not in used]
    assert unused == []


def test_only_the_commands_import_the_simulator():
    """The simulator is the oracle the stages are checked against, so only the
    commands, the scene files and the package import it; the stream type the
    stages share needs nothing of the package but the array model."""
    imports = {}
    for path in Path(wivision.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imports[path.stem] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                imports[path.stem] |= ({node.module} if node.module else
                                       {a.name for a in node.names})
    assert sorted(m for m, names in imports.items() if "simulate" in names) == [
        "__init__", "cli", "scenefile"]
    assert imports["stream"] == {"arraymodel"}


def three_spectra(tmp_path):
    """A directory of three constant spectrum CSVs."""
    indir = tmp_path / "spectra"
    indir.mkdir()
    for i in range(3):
        write_spectrum_csv(np.full((180, 180), 1.0 + i), indir / f"spectrum_{i:05d}.csv")
    return indir


class TestErrorReports:
    def test_non_finite_csif_is_2(self, scene_file, tmp_path, capsys):
        path = non_finite_csif(scene_file, tmp_path)
        assert run("spectrum", "--in", path, "--out", tmp_path / "o") == EXIT_INPUT
        assert capsys.readouterr().err == (
            "wivision: input error: packet 3: tensor contains non-finite values\n")

    def test_timestamp_beyond_int64_is_2(self, scene_file, tmp_path, capsys):
        """Packet 4's u64 timestamp 2**63 reads as -2**63, before packet 3,
        although the int64 difference of the two wraps to a positive value."""
        path = tmp_path / "wrap.csif"
        assert run("simulate", "--scene", scene_file, "--out", path) == EXIT_OK
        raw = bytearray(path.read_bytes())
        per = packet_size_bytes(3, 2, 8)
        struct.pack_into("<Q", raw, len(raw) - (len(read_csif(path)) - 4) * per, 2**63)
        path.write_bytes(bytes(raw))
        assert run("spectrum", "--in", path, "--out", tmp_path / "o") == EXIT_INPUT
        assert capsys.readouterr().err == ("wivision: input error: packet 4: timestamp "
                                           f"{-2**63} is not after 3000000\n")

    @pytest.mark.parametrize("index, value, reason", [
        (0, np.inf, "header tx_spacing_m must be finite and positive, got inf"),
        (1 + 3 * 1 + 1, -0.5, "rx positions must lie in the y == 0 plane"),
    ], ids=["tx-spacing", "off-plane"])
    def test_malformed_layout_block_is_2(self, scene_file, tmp_path, capsys, index,
                                         value, reason):
        """``index`` counts the f64 values of the layout block: the tx spacing,
        then x, y, z of each rx element."""
        path = tmp_path / "layout.csif"
        assert run("simulate", "--scene", scene_file, "--out", path) == EXIT_OK
        raw = bytearray(path.read_bytes())
        struct.pack_into("<d", raw, _HEADER.size + 8 * index, value)
        path.write_bytes(bytes(raw))
        out = tmp_path / "o"
        assert run("spectrum", "--in", path, "--out", out) == EXIT_INPUT
        assert capsys.readouterr().err == f"wivision: input error: {reason}\n"
        assert not out.exists()

    def test_verbose_logs_traceback(self, scene_file, tmp_path):
        path = non_finite_csif(scene_file, tmp_path)
        argv = ("spectrum", "--in", path, "--out", tmp_path / "o")
        line = "wivision: input error: packet 3: tensor contains non-finite values\n"
        quiet = run_subprocess(*argv)
        assert (quiet.returncode, quiet.stderr) == (EXIT_INPUT, line)
        loud = run_subprocess("-v", *argv)
        assert loud.returncode == EXIT_INPUT
        assert loud.stderr.startswith(line)
        assert "INFO wivision: input error traceback" in loud.stderr
        assert "Traceback (most recent call last)" in loud.stderr
        assert "wivision.csif.CsifFormatError: packet 3" in loud.stderr

    @pytest.mark.filterwarnings("error")
    def test_zero_static_window_is_1(self, tmp_path, capsys):
        indir = three_spectra(tmp_path)
        assert run("enhance", "--in", indir, "--out", tmp_path / "o",
                   "--static-window", 0) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "wivision: error: argument --static-window: '0': must be >= 1\n")

    @pytest.mark.parametrize("flag", ["--window", "--stride", "--static-window",
                                      "--frames"])
    def test_zero_count_flag_is_1_before_any_work(self, scene_file, tmp_path, capsys,
                                                  flag):
        out = tmp_path / "run"
        assert run("pipeline", "--scene", scene_file, "--out", out, flag, 0) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"wivision: error: argument {flag}: '0': must be >= 1\n")
        assert not out.exists()

    @pytest.mark.parametrize("value, reason", [("-1", "must be >= 1"),
                                               ("0", "must be >= 1"),
                                               ("abc", "expected an integer")],
                             ids=["negative", "zero", "text"])
    def test_bad_sources_is_1_before_any_work(self, scene_file, tmp_path, capsys, value,
                                              reason):
        stream, out = tmp_path / "stream.csif", tmp_path / "o"
        assert run("simulate", "--scene", scene_file, "--out", stream) == EXIT_OK
        assert run("spectrum", "--in", stream, "--out", out, "--sources", value) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"wivision: error: argument --sources: '{value}': {reason}\n")
        assert not out.exists()

    def test_key_error_is_a_program_fault(self, tmp_path, monkeypatch, capsys):
        def fault(indir, frame_rate_hz):
            raise KeyError("frame")
        monkeypatch.setattr(cli, "_read_track", fault)
        with pytest.raises(KeyError, match="frame"):
            run("enhance", "--in", tmp_path, "--out", tmp_path / "o")
        assert "input error" not in capsys.readouterr().err

    @pytest.mark.parametrize("text, where, reason", [
        ("[geometry]\nrx_0_m = a,0,0\n", "[geometry] ",
         "rx_0_m = 'a,0,0' must be three numbers x,y,z"),
        ("[simulation]\nduration_s = 0\n", "[simulation] ",
         "duration_s must be positive, got 0.0"),
        ("[channel]\ncarrier_hz = -1\n", "[channel] ",
         "carrier_hz must be finite and positive, got -1.0"),
        ("[geometry]\nn_tx = 0\n", "[geometry] ", "n_tx must be >= 1, got 0"),
        ("[geometry]\nn_tx = inf\n", "[geometry] ", "n_tx must be an integer"),
        ("[persona:alice]\nelevation_span_deg = 10\nazimuth_span_deg = 10\n"
         "gait_period_s = 1\nstart_azimuth_deg = 178\n", "[persona:alice] ",
         "persona azimuth 184.0 deg leaves [1, 180]; reduce walk speed, duration, "
         "or spans"),
        ("[path:b]\ntag = los\n", "", "a scene may contain at most one los path, got 2"),
        ("[path:b]\ngate_period_s = 0\n", "[path:b] ",
         "gate period must be positive, got 0.0"),
        ("[path:b]\ngain_db = 1e6\n", "[path:b] ",
         "gain_db must give a finite, positive amplitude, got 1e+06"),
        ("[path:b]\ngain_db = inf\n", "[path:b] ", "gain_db must be finite, got inf"),
        ("[path:b]\ngain_db = nan\n", "[path:b] ", "gain_db must be finite, got nan"),
        ("[persona:alice]\nelevation_span_deg = 10\nazimuth_span_deg = 10\n"
         "gait_period_s = 1\ngain_db = 1e6\n", "[persona:alice] ",
         "gain_db must give a finite, positive amplitude, got 1e+06"),
        ("[persona:alice]\nelevation_span_deg = 10\nazimuth_span_deg = 10\n"
         "gait_period_s = 1\nhead_gated = 7\n", "[persona:alice] ",
         "head_gated must be 0 or 1, got 7"),
        ("[simulation]\npacket_rate_hz = inf\n", "[simulation] ",
         "packet_rate_hz must be finite, got inf"),
        ("[simulation]\nduration_s = inf\n", "[simulation] ",
         "duration_s must be finite, got inf"),
        ("[simulation]\nsnr_db = nan\n", "[simulation] ",
         "snr_db must be finite or inf, got nan"),
        ("[path:b]\ntof_ns = inf\n", "[path:b] ", "tof_ns must be finite, got inf"),
        ("[path:b]\nphase_deg = inf\n", "[path:b] ", "phase_deg must be finite, got inf"),
        ("[path:b]\ngate_period_s = inf\n", "[path:b] ",
         "gate_period_s must be finite, got inf"),
        ("[persona:alice]\nelevation_span_deg = 10\nazimuth_span_deg = 10\n"
         "gait_period_s = inf\n", "[persona:alice] ", "gait_period_s must be finite, got inf"),
        ("[geometry]\nrx_0_m = inf,0,0\n", "[geometry] ", "rx positions must be finite"),
        ("[simulation]\npacket_rate_hz = 1e300\n", "[simulation] ",
         "packet_rate_hz must be at most 1e+09, so that nanosecond timestamps "
         "increase, got 1e+300"),
        ("[simulation]\npacket_rate_hz = 2e9\n", "[simulation] ",
         "packet_rate_hz must be at most 1e+09, so that nanosecond timestamps "
         "increase, got 2000000000.0"),
        ("[simulation]\nduration_s = 1e10\n", "[simulation] ",
         "duration_s must be below 9.223e+09, so that nanosecond timestamps fit in "
         "int64, got 10000000000.0"),
    ], ids=["rx_row", "duration", "carrier", "n_tx", "n_tx_inf", "persona_azimuth",
            "two_los", "gate_period", "path_gain_overflow", "path_gain_inf",
            "path_gain_nan", "persona_gain_overflow", "head_gated", "packet_rate_inf",
            "duration_inf", "snr_nan", "tof_inf", "phase_inf", "gate_period_inf",
            "gait_period_inf", "rx_row_inf", "packet_rate_1e300", "packet_rate_2e9",
            "duration_1e10"])
    def test_bad_scene_names_file_and_section(self, tmp_path, capsys, text, where,
                                              reason):
        path = tmp_path / "scene.ini"
        path.write_text("[path:a]\ntag = los\n" + text)
        assert run("simulate", "--scene", path, "--out", tmp_path / "s.csif") == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"wivision: input error: {path}: {where}{reason}\n")

    def test_complex64_overflow_writes_no_stream(self, tmp_path, capsys):
        # a 6000 dB amplitude is a finite float64 that complex64 cannot hold
        path = tmp_path / "scene.ini"
        path.write_text("[path:a]\ntag = los\n[path:b]\ngain_db = 6000\n")
        out = tmp_path / "s.csif"
        assert run("simulate", "--scene", path, "--out", out) == EXIT_INPUT
        assert capsys.readouterr().err == (
            "wivision: input error: packet 0: tensor values exceed the complex64 range\n")
        assert not out.exists()

    def test_stream_beyond_memory_writes_no_stream(self, scene_file, tmp_path, capsys,
                                                   monkeypatch):
        # the test scene's 400 packets of 48 values need 307200 bytes
        simulate_module = sys.modules["wivision.simulate"]
        monkeypatch.setattr(simulate_module, "_physical_memory_bytes", lambda: 1 << 17)
        out = tmp_path / "s.csif"
        assert run("simulate", "--scene", scene_file, "--out", out) == EXIT_INPUT
        assert capsys.readouterr().err == (
            "wivision: input error: a stream of 400 packets of 48 values needs 307200 "
            "bytes, more than this machine's 131072 bytes of memory; lower [simulation] "
            "packet_rate_hz or duration_s\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["enhance", "pipeline"])
    @pytest.mark.parametrize("floor_db", ["-4000", "-5", "nan"])
    def test_bad_floor_writes_no_frames(self, scene_file, tmp_path, capsys, command,
                                        floor_db):
        out = tmp_path / "run"
        source = (("--in", three_spectra(tmp_path), "--static-mode", "global")
                  if command == "enhance" else
                  ("--scene", scene_file, *SCAN, "--static-window", 3, "--frames", 2))
        assert run(command, *source, "--out", out, "--floor-db", floor_db) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"wivision: input error: floor_db must be >= 0 or infinite, "
            f"got {float(floor_db)}\n")
        assert not list(out.rglob("*.csv")) and not list(out.rglob("*.pgm"))

    def test_failed_enhancement_writes_no_spectra(self, scene_file, tmp_path, capsys):
        # the 4-frame scan is shorter than a 5-frame static window; nothing is
        # written until every image is computed
        out = tmp_path / "run"
        assert run("pipeline", "--scene", scene_file, "--out", out, *SCAN,
                   "--static-window", 5) == EXIT_INPUT
        assert capsys.readouterr().err == ("wivision: input error: static estimation "
                                           "needs at least 5 frames, track has 4\n")
        assert not (out / "spectra").exists()

    def test_short_capture_is_one_line(self, tmp_path):
        scene = tmp_path / "scene.ini"
        scene.write_text(SCENE.replace("duration_s = 0.4", "duration_s = 0.2"))
        stream, out = tmp_path / "stream.csif", tmp_path / "o"
        assert run("simulate", "--scene", scene, "--out", stream) == EXIT_OK
        done = run_subprocess("spectrum", "--in", stream, "--out", out,
                              "--window", 500)
        assert (done.returncode, done.stderr) == (
            EXIT_INPUT, "wivision: input error: stream of 200 packets is shorter "
                        "than one 500-packet window\n")
        assert not out.exists()

    def test_bad_carrier_header_is_2(self, tmp_path, capsys):
        path = tmp_path / "carrier.csif"
        path.write_bytes(struct.pack("<4sHHHHddQ", b"CSIF", 1, 3, 2, 8, np.nan,
                                     1.25e6, 0))
        assert run("spectrum", "--in", path, "--out", tmp_path / "o") == EXIT_INPUT
        assert capsys.readouterr().err == (
            "wivision: input error: header carrier_hz must be finite and positive, "
            "got nan\n")


def spectrum_csv_text(rows=None) -> str:
    """A spectrum CSV; ``rows`` replaces the data rows of a valid one."""
    if rows is None:
        rows = [f"{a},{e},1.0" for a in range(1, 181) for e in range(1, 181)]
    return "azimuth,elevation,power\n" + "".join(f"{r}\n" for r in rows)


def repeated_bin_rows():
    rows = spectrum_csv_text().splitlines()[1:]
    rows[1] = "1,1,1.0"  # azimuth 1, elevation 2 replaced by a second (1, 1)
    return rows


class TestSpectrumCsvInput:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text, reason", [
        (spectrum_csv_text(["1,1,abc"]),
         "could not convert string 'abc' to float64 at row 0, column 3."),
        (spectrum_csv_text(["1,1,1.0"]),
         "spectrum CSV must have 32400 data rows of azimuth,elevation,power; got (1, 3)"),
        ("", "spectrum CSV must have 32400 data rows of azimuth,elevation,power; "
             "got (0, 1)"),
        (spectrum_csv_text(repeated_bin_rows()),
         "spectrum CSV has no row for azimuth 1, elevation 2; "
         "every bin must appear exactly once"),
        (spectrum_csv_text(["1.5,1,1.0"] + repeated_bin_rows()[1:]),
         "spectrum CSV angles must be whole degrees in [1, 180]"),
        (spectrum_csv_text(spectrum_csv_text().splitlines()[1:-1] + ["180,180,-1.0"]),
         "spectrum values must be finite and >= 0"),
    ], ids=["not-a-number", "one-row", "empty", "repeated-bin", "fractional-angle",
            "negative-power"])
    def test_bad_csv_names_file(self, tmp_path, capsys, text, reason):
        indir = tmp_path / "enhanced"
        indir.mkdir()
        bad = indir / "enhanced_00000.csv"
        bad.write_text(text)
        assert run("aggregate", "--in", indir, "--out", tmp_path / "agg.csv") == EXIT_INPUT
        assert capsys.readouterr().err == f"wivision: input error: {bad}: {reason}\n"


class TestPipelineCommands:
    def test_simulate_then_spectrum(self, scene_file, tmp_path):
        csif_path = tmp_path / "stream.csif"
        assert run("simulate", "--scene", scene_file, "--out", csif_path) == EXIT_OK
        assert csif_path.exists()
        outdir = tmp_path / "spectra"
        assert run("spectrum", "--in", csif_path, "--window", 100, "--stride", 100,
                   "--out", outdir, "--tau-grid-ns", "0:40:10",
                   "--aod-grid-deg", "60,90,120") == EXIT_OK
        csvs = sorted(outdir.glob("*.csv"))
        pgms = sorted(outdir.glob("*.pgm"))
        assert len(csvs) == 4 and len(pgms) == 4

    def test_enhance_and_aggregate(self, scene_file, tmp_path, caplog):
        csif_path = tmp_path / "stream.csif"
        run("simulate", "--scene", scene_file, "--out", csif_path)
        spectra = tmp_path / "spectra"
        run("spectrum", "--in", csif_path, "--window", 100, "--stride", 100,
            "--out", spectra, "--tau-grid-ns", "0:40:10",
            "--aod-grid-deg", "60,90,120")
        enhanced = tmp_path / "enhanced"
        assert run("enhance", "--in", spectra, "--static-window", 3,
                   "--out", enhanced) == EXIT_OK
        assert len(sorted(enhanced.glob("*.csv"))) == 2
        agg = tmp_path / "agg.csv"
        assert run("aggregate", "--in", enhanced, "--frames", 2,
                   "--out", agg) == EXIT_OK
        assert agg.exists()
        assert run("aggregate", "--in", enhanced, "--frames", 2,
                   "--out", tmp_path / "agg.pgm") == EXIT_OK
        # more frames than the track holds aggregate all of them, as in pipeline
        caplog.set_level(logging.INFO, logger="wivision")
        assert run("-v", "aggregate", "--in", enhanced, "--frames", 5,
                   "--out", tmp_path / "agg5.csv") == EXIT_OK
        assert (tmp_path / "agg5.csv").read_bytes() == agg.read_bytes()
        assert "aggregated the last 2 of 2 frames" in caplog.text

    def test_global_enhance_of_short_track(self, tmp_path):
        out = tmp_path / "enhanced"
        assert run("enhance", "--in", three_spectra(tmp_path), "--out", out,
                   "--static-mode", "global") == EXIT_OK
        assert len(sorted(out.glob("*.csv"))) == 3
        assert len(sorted(out.glob("*.pgm"))) == 3

    def test_pipeline_end_to_end(self, scene_file, tmp_path):
        out = tmp_path / "run"
        assert run("pipeline", "--scene", scene_file, "--out", out,
                   "--window", 100, "--stride", 100, "--static-window", 3,
                   "--frames", 2, "--tau-grid-ns", "0:40:10",
                   "--aod-grid-deg", "60,90,120") == EXIT_OK
        assert (out / "stream.csif").exists()
        assert (out / "aggregate.csv").exists()
        assert (out / "aggregate.pgm").exists()

    @pytest.mark.parametrize("offsets, frames, layout", [
        ((), 2, "[geometry]\n"), (("--inject-offsets",), 2, "[geometry]\n"),
        ((), 5, "[geometry]\n"), ((), 2, "[geometry]\nspacing_m = 0.02\n"),
        ((), 2, "[channel]\ntx_spacing_m = 0.02\n\n[geometry]\n"),
    ], ids=["plain", "offsets", "frames-above-track", "scene-layout", "scene-tx-spacing"])
    def test_pipeline_equals_its_stages(self, tmp_path, offsets, frames, layout):
        """``pipeline`` writes, byte for byte, what ``simulate``, ``spectrum``,
        ``enhance`` and ``aggregate`` write when run in turn on its flags; a
        scene's own rx layout and tx spacing reach ``spectrum`` in the capture."""
        scene = tmp_path / "scene.ini"
        scene.write_text(SCENE.replace("[geometry]\n", layout))
        out, stages = tmp_path / "pipeline", tmp_path / "stages"
        assert run("pipeline", "--scene", scene, "--out", out, *offsets, *SCAN,
                   "--static-window", 3, "--frames", frames) == EXIT_OK
        stages.mkdir()
        capture = stages / "stream.csif"
        assert run("simulate", "--scene", scene, "--out", capture, *offsets) == EXIT_OK
        assert run("spectrum", "--in", capture, "--out", stages / "spectra",
                   *SCAN) == EXIT_OK
        assert run("enhance", "--in", stages / "spectra", "--out", stages / "enhanced",
                   "--static-window", 3) == EXIT_OK
        for name in ("aggregate.csv", "aggregate.pgm"):
            assert run("aggregate", "--in", stages / "enhanced", "--frames", frames,
                       "--out", stages / name) == EXIT_OK
        assert len(tree(out)) == 15
        assert tree(out) == tree(stages)

    def test_pipeline_sanitizes_the_capture_it_read(self, tmp_path, monkeypatch):
        """``pipeline`` frees its complex128 simulation once it is written, so
        sanitize starts with the complex64 capture read back as the one copy."""
        scene = tmp_path / "scene.ini"  # the default 810-element array
        scene.write_text("[simulation]" + SCENE.split("[simulation]")[1])
        bundle = load_scene(scene)
        capture = bundle.scene.n_packets * bundle.geometry.dim * 8
        sanitize, live = cli.sanitize_stream, []

        def traced(stream):
            live.append(tracemalloc.get_traced_memory()[0])
            return sanitize(stream)

        monkeypatch.setattr(cli, "sanitize_stream", traced)
        tracemalloc.start()
        try:
            assert run("pipeline", "--scene", scene, "--out", tmp_path / "run", *SCAN,
                       "--static-window", 3, "--frames", 2) == EXIT_OK
        finally:
            tracemalloc.stop()
        assert len(live) == 1 and live[0] < 1.5 * capture

    def test_degraded_flag(self, scene_file, tmp_path):
        csif_path = tmp_path / "stream.csif"
        run("simulate", "--scene", scene_file, "--out", csif_path)
        outdir = tmp_path / "degraded"
        assert run("spectrum", "--in", csif_path, "--stride", 200, "--degraded",
                   "--out", outdir, "--tau-grid-ns", "0", "--aod-grid-deg",
                   "90") == EXIT_OK
        assert len(sorted(outdir.glob("*.csv"))) == 2

    def test_seed_override_changes_stream(self, scene_file, tmp_path):
        a, b, c = (tmp_path / n for n in ("a.csif", "b.csif", "c.csif"))
        run("simulate", "--scene", scene_file, "--out", a)
        run("--seed", 77, "simulate", "--scene", scene_file, "--out", b)
        run("--seed", 77, "simulate", "--scene", scene_file, "--out", c)
        assert a.read_bytes() != b.read_bytes()
        assert b.read_bytes() == c.read_bytes()

    def test_seed_flag_matches_scene_seed(self, tmp_path):
        # offsets are drawn from the scene seed + 1, whether --seed or the
        # scene file sets it
        scene = tmp_path / "scene.ini"
        scene.write_text(SCENE.replace("seed = 9", "seed = 7"))
        a, b = tmp_path / "a.csif", tmp_path / "b.csif"
        assert run("simulate", "--scene", scene, "--out", a, "--inject-offsets") == EXIT_OK
        assert run("--seed", 7, "simulate", "--scene", scene, "--out", b,
                   "--inject-offsets") == EXIT_OK
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv, err", [
    (("--config", "g.ini", "spectrum"), None),
    (("spectrum", "--config", "g.ini"),
     "wivision: error: unrecognized arguments: --config g.ini\n"),
    (("spectrum", "--reduce", "max"),
     "wivision: error: unrecognized arguments: --reduce max\n"),
], ids=["global_flag", "config", "reduce"])
def test_spectrum_config_file(tmp_path, capsys, argv, err):
    """``spectrum`` takes its antenna layout from the capture alone, so a
    ``--config`` file is a usage error, raised before the capture is read, as
    is the deleted ``--reduce``."""
    out = tmp_path / "out"
    assert run(*argv, "--in", tmp_path / "stream.csif", "--out", out) == EXIT_USAGE
    stderr = capsys.readouterr().err
    if err is None:
        assert stderr.startswith("wivision: error: ")
    else:
        assert stderr == err
    assert not out.exists()


def test_readme_scene_runs_at_defaults(tmp_path):
    """The README's example scene gives ``pipeline`` at its defaults enough
    windows for the rolling background and a full aggregate."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    scene_file = tmp_path / "scene.ini"
    scene_file.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
    scene = load_scene(scene_file).scene
    windows = 1 + (scene.n_packets - music.DEFAULT_WINDOW_LEN) // music.DEFAULT_STRIDE
    assert windows >= imaging.DEFAULT_STATIC_WINDOW + imaging.DEFAULT_AGGREGATE_FRAMES - 1


def test_readme_flags_exist():
    """Every flag the README's command synopsis and global flags name is parsed."""
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1]
    synopsis = section.split("```sh\n", 1)[1].split("```", 1)[0]
    missing = []
    for line in synopsis.replace("\\\n", " ").splitlines():
        command, rest = line.split(maxsplit=2)[1:]
        known = sub.choices[command]._option_string_actions
        missing += [f"{command} {flag}"
                    for flag in re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", rest)
                    if flag not in known]
    # the global flags are listed outside the parentheses that explain them
    listed = section.split("Global flags:", 1)[1].split("\n\n", 1)[0]
    while (bare := re.sub(r"\([^()]*\)", "", listed)) != listed:
        listed = bare
    missing += [f"wivision {flag}" for flag in re.findall(r"`(-[a-z-]+)`", listed)
                if flag not in parser._option_string_actions]
    assert missing == []


@pytest.mark.parametrize("stage, flag", [
    ("simulate", "--inject-offsets"),
    ("spectrum", "--window"), ("spectrum", "--stride"), ("spectrum", "--no-sanitize"),
    ("spectrum", "--tau-grid-ns"), ("spectrum", "--aod-grid-deg"),
    ("enhance", "--static-window"), ("enhance", "--floor-db"),
    ("enhance", "--static-mode"), ("aggregate", "--frames"),
])
def test_pipeline_flag_matches_stage(stage, flag):
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))

    def spec(command):
        action = sub.choices[command]._option_string_actions[flag]
        return (action.dest, action.default, action.help, action.type, action.choices,
                action.nargs, action.const)

    assert spec("pipeline") == spec(stage)


def usable_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def run_pipeline(scene_file, out):
    return run("-v", "pipeline", "--scene", scene_file, "--out", out, *SCAN,
               "--static-window", 3, "--frames", 2)


def tree(root):
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestFrameWriter:
    def test_processes(self, monkeypatch):
        usable_cpus(monkeypatch, 4)
        assert [cli._processes(n) for n in (0, 1, 2, 3, 10)] == [1, 1, 2, 3, 4]
        usable_cpus(monkeypatch, 1)
        assert cli._processes(10) == 1

    @pytest.mark.parametrize("processes", [1, 2, 3])
    def test_fork_map_order_and_first_failure(self, processes):
        items = list(range(7))
        squares = np.frombuffer(mmap.mmap(-1, 8 * len(items)), dtype=np.int64)

        def square(x):
            squares[x] = x * x

        assert cli._fork_map(square, items, processes) is None
        assert squares.tolist() == [x * x for x in items]

        def fail_from_3(x):
            if x >= 3:
                raise ValueError(f"item {x}")
            return x

        # item 3 is this process's at 1 and 3 processes and a worker's at 2
        with pytest.raises(ValueError, match="^item 3$") as failure:
            cli._fork_map(fail_from_3, items, processes)
        if processes == 2:
            assert isinstance(failure.value.__cause__, cli._WorkerTraceback)
            assert "in fail_from_3" in str(failure.value.__cause__)
        if processes > 1:
            # a worker that dies without returning its results
            with pytest.raises(ChildProcessError, match="exited with status 3"):
                cli._fork_map(lambda x: os._exit(3) if x == 1 else x, items, processes)

    @pytest.mark.parametrize("command", ["pipeline", "spectrum", "enhance",
                                         "spectrum_no_noise"])
    def test_workers_byte_identical(self, scene_file, tmp_path, monkeypatch, caplog,
                                    capsys, command):
        stream, spectra = tmp_path / "stream.csif", tmp_path / "spectra"
        if command != "pipeline":
            assert run("simulate", "--scene", scene_file, "--out", stream) == EXIT_OK
            assert run("spectrum", "--in", stream, "--out", spectra, *SCAN) == EXIT_OK
            capsys.readouterr()
        # pipeline: stream.csif and 4 raw, 2 enhanced and 1 aggregate CSV/PGM pairs;
        # spectrum_no_noise: every window of the 48-element array fails in imaging
        windows, frames, files = {"pipeline": (4, 7, 15), "spectrum": (4, 4, 8),
                                  "enhance": (0, 2, 4),
                                  "spectrum_no_noise": (4, 0, 0)}[command]
        argv = {
            "pipeline": ("--scene", scene_file, *SCAN, "--static-window", 3, "--frames", 2),
            "spectrum": ("--in", stream, *SCAN),
            "enhance": ("--in", spectra, "--static-window", 3),
            "spectrum_no_noise": ("--in", stream, *SCAN, "--sources", 48),
        }[command]
        err = ("wivision: input error: s_hat=48 leaves no noise subspace (dim 48)\n"
               if frames == 0 else "")
        caplog.set_level(logging.INFO, logger="wivision")
        # imaging is shared among processes only while OpenBLAS runs one thread
        pinned = cli._pin_blas_to_one_thread()
        trees = []
        for cpus, pin in ((1, pinned), (2, pinned), (2, False)):
            usable_cpus(monkeypatch, cpus)
            monkeypatch.setattr(cli, "_pin_blas_to_one_thread", lambda: pin)
            caplog.clear()
            out = tmp_path / f"cpus{cpus}-{pin}"
            assert run("-v", command.split("_")[0], *argv, "--out", out) == (
                EXIT_OK if frames else EXIT_INPUT)
            assert capsys.readouterr().err == err
            logged = re.sub(r"in [0-9.]+ s", "in - s", caplog.text)
            if frames:
                assert f"wrote {frames} frames in - s, processes: {cpus}\n" in logged
            if windows and frames:
                assert (f"imaged {windows} windows in - s, "
                        f"processes: {cpus if pin else 1}\n") in logged
            assert ("found no OpenBLAS to pin" in logged) == (not pin)
            trees.append(tree(out) if out.exists() else None)
        assert len(trees[0] or ()) == files
        assert trees[0] == trees[1] == trees[2]

    def test_blas_threads_byte_identical(self, tmp_path):
        # OpenBLAS reads OPENBLAS_NUM_THREADS when it loads, so each count needs
        # its own process; the default 810-element array makes the Gram product
        # of a window large enough for OpenBLAS to split it among threads
        scene = tmp_path / "scene.ini"
        scene.write_text("[simulation]" + SCENE.split("[simulation]")[1]
                         .replace("duration_s = 0.4", "duration_s = 0.3"))
        trees = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            done = run_subprocess("pipeline", "--scene", scene, "--out", out, *SCAN,
                                  "--static-window", 2, "--frames", 2,
                                  OPENBLAS_NUM_THREADS=threads)
            assert (done.returncode, done.stderr) == (EXIT_OK, "")
            trees.append(tree(out))
        assert len(trees[0]) == 13
        assert trees[0] == trees[1]

    def test_dead_worker_is_worker_failure(self, scene_file, tmp_path, monkeypatch,
                                           capsys):
        usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(cli, "_pin_blas_to_one_thread", lambda: True)
        spectrum, parent = music.spectrum, os.getpid()

        def die_in_worker(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(7)
            return spectrum(*args, **kwargs)

        monkeypatch.setattr(music, "spectrum", die_in_worker)
        out = tmp_path / "run"
        assert run_pipeline(scene_file, out) == EXIT_INPUT
        assert re.fullmatch(r"wivision: worker failure: worker process \d+ exited "
                            r"with status 7\n", capsys.readouterr().err)
        assert not (out / "spectra").exists()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_unwritable_frame_is_input_error(self, scene_file, tmp_path, monkeypatch,
                                             capsys, cpus):
        usable_cpus(monkeypatch, cpus)
        out = tmp_path / "run"
        blocked = out / "spectra" / "spectrum_00001.csv"
        blocked.mkdir(parents=True)
        assert run_pipeline(scene_file, out) == EXIT_INPUT
        assert str(blocked) in capsys.readouterr().err


class TestReidCommand:
    @pytest.mark.parametrize("rate", ["0", "-1", "nan", "inf"])
    def test_bad_frame_rate_is_1_before_any_track(self, tmp_path, capsys, rate):
        # the track directories do not exist, so reading one would exit 2
        cmc_out = tmp_path / "cmc.csv"
        assert run("reid", "--gallery", tmp_path / "gallery", "--probes",
                   tmp_path / "probes", "--cmc", cmc_out, "--frame-rate", rate) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"wivision: error: argument --frame-rate: '{rate}': must be finite and > 0\n")
        assert not cmc_out.exists()

    def test_reid_over_synthetic_tracks(self, tmp_path, rng):
        def write_track(root, name, el_lo, el_hi, period):
            d = root / name
            d.mkdir(parents=True)
            for i in range(55):
                grid = np.zeros((180, 180))
                grid[89, el_lo - 1] = 10.0
                if (i % period) < period // 2:
                    grid[89, el_hi - 1] = 8.0
                write_spectrum_csv(grid, d / f"enhanced_{i:05d}.csv")

        gallery = tmp_path / "gallery"
        probes = tmp_path / "probes"
        write_track(gallery, "alice", 70, 100, 10)
        write_track(gallery, "bob", 60, 120, 16)
        write_track(probes, "alice__walk2", 70, 100, 10)
        write_track(probes, "bob__walk2", 60, 120, 16)
        cmc_out = tmp_path / "cmc.csv"
        assert run("reid", "--gallery", gallery, "--probes", probes,
                   "--cmc", cmc_out) == EXIT_OK
        lines = cmc_out.read_text().splitlines()
        assert lines[0] == "k,accuracy"
        assert lines[1] == "1,1.0"
