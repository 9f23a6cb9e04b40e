"""wivision: WiFi CSI streams to 2D angle-of-arrival images and Re-ID metrics."""

from .arraymodel import (
    ArrayGeometry,
    ChannelConfig,
    PathHypothesis,
    SteeringVector,
    default_geometry,
    rx_phase,
    subcarrier_phase,
    tx_phase,
    virtual_steering_vector,
)
from .csif import CsifFormatError, read_csif, write_csif
from .export import export_spectrum, read_spectrum_csv, write_pgm, write_spectrum_csv
from .imaging import SpectrumTrack, aggregate, enhance, enhance_track, static_estimate
from .music import (
    GridSpec,
    NoiseSubspace,
    SnapshotWindow,
    Spectrum2D,
    covariance,
    detect_peaks,
    noise_subspace,
    noise_subspace_from_window,
    spectrum,
    windows,
)
from .reid import CmcCurve, FeatureVector, RankingResult, cmc, extract_features, rank
from .sanitize import sanitize
from .scenefile import SceneBundle, SceneFileError, load_scene
from .simulate import (
    CsiStream,
    DegenerateSceneError,
    GainGate,
    PersonaParams,
    Scene,
    ScenePath,
    degrade_stream,
    human_walk_preset,
    inject_phase_offsets,
    simulate,
    six_reflector_scene,
    six_reflector_truth,
)

__version__ = "0.1.0"
