"""wivision: WiFi CSI streams to 2D angle-of-arrival images and Re-ID metrics."""

from .arraymodel import ArrayGeometry, ChannelConfig, PathHypothesis, default_geometry
from .csif import CsifFormatError, read_csif, write_csif
from .export import read_spectrum_csv, write_pgm, write_spectrum_csv
from .imaging import SpectrumTrack, aggregate, enhance_track
from .music import (
    GridSpec,
    NoiseSubspace,
    SnapshotWindow,
    Spectrum2D,
    detect_peaks,
    noise_subspace_from_window,
    spectrum,
    windows,
)
from .reid import CmcCurve, FeatureVector, RankingResult, cmc, extract_features, rank
from .sanitize import sanitize
from .scenefile import SceneBundle, SceneFileError, load_scene
from .simulate import (
    DegenerateSceneError,
    GainGate,
    PersonaParams,
    Scene,
    ScenePath,
    human_walk_preset,
    inject_phase_offsets,
    simulate,
    six_reflector_scene,
    six_reflector_truth,
)
from .stream import CsiStream, degrade_stream

__version__ = "0.1.0"
