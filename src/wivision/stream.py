"""A CSI capture in memory: one timestamp vector plus one complex array.

A :class:`CsiStream` indexes its tensors (packet, rx, tx, subcarrier), and
every stage that writes a stream of its own, the simulator and the sanitizer,
stores it in steering order, (packet, tx, rx, subcarrier), the row order of
the virtual steering vector (see :func:`steering_ordered_zeros`).  The
windows of :func:`wivision.music.windows` read it through
:func:`vectorize_frames` as views, without a copy.  A capture read from CSIF
is held at complex64 in packet order; it is copied once into steering order
and widened to complex128, which is exact, by the sanitizer or, when nothing
sanitizes it, by :func:`vectorize_frames`.

The per-packet stages (rendering, sanitizing, checking and writing CSIF) work
in blocks of :func:`block_len` packets, each by the same per-packet
arithmetic as the whole capture at once.  So their bits do not depend on the
block size, the capture is held once, and the only other memory a stage holds
is one block's temporaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arraymodel import ArrayGeometry, ChannelConfig


@dataclass(frozen=True)
class CsiStream:
    """A packet stream as one array, plus the channel/geometry it was measured with.

    ``timestamps_ns`` is an (n,) int64 array of strictly increasing packet
    times; ``tensors`` is the (n, rx antenna, tx antenna, subcarrier) complex
    array of channel tensors.  Both are stored without a copy and made
    read-only.  A complex64 or complex128 array is kept at its precision;
    any other input is converted to complex128.
    """

    config: ChannelConfig
    geometry: ArrayGeometry
    timestamps_ns: np.ndarray
    tensors: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.timestamps_ns, dtype=np.int64)
        t = np.asarray(self.tensors)
        if t.dtype not in (np.complex64, np.complex128):
            t = t.astype(complex)
        shape = (self.geometry.n_rx, self.geometry.n_tx, self.geometry.n_subcarriers)
        if ts.ndim != 1:
            raise ValueError(f"timestamps must be 1-D, got shape {ts.shape}")
        if t.ndim != 4 or t.shape[1:] != shape:
            raise ValueError(f"packet 0: tensor shape {t.shape[1:]} does not match "
                             f"geometry {shape}")
        if len(t) != len(ts):
            raise ValueError(f"packet {min(len(t), len(ts))}: {len(ts)} timestamps "
                             f"but {len(t)} tensors")
        # neighbours are compared, not subtracted: a difference can wrap
        late = np.flatnonzero(ts[1:] <= ts[:-1])
        if late.size:
            p = int(late[0]) + 1
            raise ValueError(f"packet {p}: timestamp {ts[p]} is not after {ts[p - 1]}")
        step = block_len(self.geometry.dim)
        for start in range(0, len(t), step):
            bad = np.flatnonzero(~np.isfinite(t[start:start + step]).all(axis=(1, 2, 3)))
            if bad.size:
                raise ValueError(f"packet {start + int(bad[0])}: tensor contains "
                                 "non-finite values")
        for name, a in (("timestamps_ns", ts), ("tensors", t)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def __len__(self) -> int:
        return len(self.timestamps_ns)


_BLOCK_VALUES = 1 << 14


def block_len(packet_values: int) -> int:
    """Packets per block of the per-packet stages, at least one.

    A block holds about ``_BLOCK_VALUES`` complex values (256 KiB), so that it
    and a stage's temporaries, about five times its size, stay in a 2 MiB L2
    cache.
    """
    return max(1, _BLOCK_VALUES // packet_values)


def steering_ordered_zeros(n_packets: int, n_rx: int, n_tx: int, n_su: int) -> np.ndarray:
    """Zeroed (packet, rx, tx, subcarrier) complex tensors stored in steering
    order, (packet, tx, rx, subcarrier), so that
    :func:`wivision.music.windows` cuts its windows from them without a copy."""
    return np.zeros((n_packets, n_tx, n_rx, n_su), dtype=complex).transpose(0, 2, 1, 3)


def vectorize_frames(tensors: np.ndarray) -> np.ndarray:
    """(n, rx, tx, su) frame tensors -> (n, rx*tx*su) rows in steering order.

    The rows are a view when the tensors are complex128 stored in steering
    order.  Otherwise they are a copy, widened to complex128, which is exact.
    """
    rows = np.ascontiguousarray(tensors.transpose(0, 2, 1, 3), dtype=complex)
    return rows.reshape(tensors.shape[0], -1)


def degrade_stream(stream: CsiStream) -> CsiStream:
    """Collapse a stream to 1 tx antenna and 1 subcarrier (rx-only diversity)."""
    geom = ArrayGeometry(stream.geometry.rx_positions, n_tx=1, n_subcarriers=1)
    tensors = np.ascontiguousarray(stream.tensors[:, :, :1, :1])
    return CsiStream(stream.config, geom, stream.timestamps_ns, tensors)
