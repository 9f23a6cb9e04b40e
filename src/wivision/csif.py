"""CSIF binary container for CSI packet streams.

Layout (little-endian):

    magic   4 bytes  b"CSIF"
    version u16      2
    n_rx    u16
    n_tx    u16
    n_su    u16
    carrier_hz              f64
    subcarrier_spacing_hz   f64
    packet_count            u64
    tx_spacing_m            f64
    rx_positions            n_rx rows of (x, y, z) f64, meters

followed by ``packet_count`` records of :func:`_packet_dtype`: a u64 timestamp
in nanoseconds and ``n_rx * n_tx * n_su`` little-endian complex64 values
(real then imaginary float32; index order rx-major, then tx, then subcarrier).
The reader and the writer share that one record layout.  The reader reads the
payload straight into one record array and hands its complex64 field to the
stream without a copy, so a capture read from CSIF is held at complex64.  The
writer converts and writes the stream a block of packets at a time.

A capture thus carries its own antenna layout, and the reader rebuilds the
exact :class:`~wivision.arraymodel.ChannelConfig` and
:class:`~wivision.arraymodel.ArrayGeometry` it was written with.  Version 1
files end the header at ``packet_count``; the reader gives them the default
L-shaped half-wavelength layout of their dimensions.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .arraymodel import ArrayGeometry, ChannelConfig, default_geometry
from .stream import CsiStream, block_len

MAGIC = b"CSIF"
VERSION = 2
_HEADER = struct.Struct("<4sHHHHddQ")  # version 2 follows it with the layout block


class CsifFormatError(ValueError):
    """Malformed CSIF file."""


def _packet_dtype(n_rx: int, n_tx: int, n_su: int) -> np.dtype:
    """The record of one packet: timestamp, then its (rx, tx, subcarrier) tensor."""
    return np.dtype([("ts", "<u8"), ("iq", "<c8", (n_rx, n_tx, n_su))])


def packet_size_bytes(n_rx: int, n_tx: int, n_su: int) -> int:
    return _packet_dtype(n_rx, n_tx, n_su).itemsize


def write_csif(stream: CsiStream, path) -> None:
    """Serialize a stream; values are stored at float32 precision.

    A negative timestamp, which the u64 field cannot hold, or a value beyond
    the float32 range raises :class:`CsifFormatError` naming the first packet
    at fault, before the file is opened.  The only memory this holds is one
    block of records.
    """
    if len(stream) and stream.timestamps_ns[0] < 0:  # the timestamps increase
        raise CsifFormatError(f"packet 0: timestamp {stream.timestamps_ns[0]} is "
                              "negative, and CSIF stores u64")
    geom = stream.geometry
    n_rx, n_tx, n_su = geom.n_rx, geom.n_tx, geom.n_subcarriers
    for dim, name in ((n_rx, "n_rx"), (n_tx, "n_tx"), (n_su, "n_su")):
        if not 0 < dim <= 0xFFFF:
            raise ValueError(f"{name}={dim} does not fit the CSIF header")
    layout = np.append(stream.config.tx_spacing_m, geom.rx_positions).astype("<f8")
    header = _HEADER.pack(MAGIC, VERSION, n_rx, n_tx, n_su, stream.config.carrier_hz,
                          stream.config.subcarrier_spacing_hz, len(stream)) + layout.tobytes()
    step = block_len(geom.dim)
    blocks = [slice(start, start + step) for start in range(0, len(stream), step)]
    records = np.empty(min(step, len(stream)), dtype=_packet_dtype(n_rx, n_tx, n_su))

    def fill(b: slice) -> np.ndarray:
        """The records of the packets in ``b``, built in the one block buffer."""
        tensors = stream.tensors[b]
        out = records[:len(tensors)]
        try:
            with np.errstate(over="raise"):
                out["iq"] = tensors
        except FloatingPointError:
            with np.errstate(over="ignore"):
                cast = tensors.astype(np.complex64)
            fits = np.isfinite(cast).reshape(len(tensors), -1).all(axis=1)
            raise CsifFormatError(f"packet {b.start + int(np.argmin(fits))}: tensor "
                                  "values exceed the complex64 range") from None
        out["ts"] = stream.timestamps_ns[b]
        return out

    for b in blocks:  # every value is checked before the file is opened
        fill(b)
    with open(path, "wb") as fh:
        fh.write(header)
        for b in blocks:
            fh.write(fill(b))


def read_csif(path) -> CsiStream:
    """Parse a CSIF file back into a stream on the layout it carries.

    The payload is read into one record array; the stream's tensors are its
    read-only complex64 field, not a copy.  A malformed header or layout block
    raises :class:`CsifFormatError` naming the field, and a timestamp beyond
    int64 or out of order, or a non-finite value, one naming the first packet.
    """
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise CsifFormatError(f"file too short for a CSIF header ({len(head)} bytes)")
        magic, version, n_rx, n_tx, n_su, carrier_hz, spacing_hz, n_packets = \
            _HEADER.unpack(head)
        if magic != MAGIC:
            raise CsifFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
        if version not in (1, VERSION):
            raise CsifFormatError(f"unsupported CSIF version {version}")
        if min(n_rx, n_tx, n_su) < 1:
            raise CsifFormatError(f"invalid dimensions {n_rx}x{n_tx}x{n_su}")

        tx_spacing = positions = None  # version 1: the default layout
        if version == VERSION:
            size = 8 + 24 * n_rx
            layout = fh.read(size)
            if len(layout) < size:
                raise CsifFormatError(f"file too short for the layout block of {n_rx} "
                                      f"rx elements ({len(layout)} of {size} bytes)")
            tx_spacing, *positions = np.frombuffer(layout, "<f8").tolist()
        try:
            cfg = ChannelConfig(carrier_hz, spacing_hz, tx_spacing)
        except ValueError as exc:
            raise CsifFormatError(f"header {exc}") from exc

        try:
            record = _packet_dtype(n_rx, n_tx, n_su)
        except ValueError as exc:  # numpy caps a record at 2 GB
            raise CsifFormatError(f"invalid dimensions {n_rx}x{n_tx}x{n_su}: {exc}") from exc
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        complete, leftover = divmod(payload, record.itemsize)
        if leftover:
            raise CsifFormatError(f"file truncated mid packet {complete}: "
                                  f"{leftover} trailing bytes of {record.itemsize}")
        if complete != n_packets:
            raise CsifFormatError(f"header declares {n_packets} packets but payload "
                                  f"holds {complete}; bad packet index "
                                  f"{min(complete, n_packets)}")
        packets = np.fromfile(fh, dtype=record, count=n_packets)
    if len(packets) != n_packets:  # the file shrank while it was read
        raise CsifFormatError(f"file truncated at packet {len(packets)}")
    beyond = np.flatnonzero(packets["ts"] >= 1 << 63)
    if beyond.size:
        raise CsifFormatError(f"packet {beyond[0]}: timestamp {packets['ts'][beyond[0]]} "
                              "is beyond the int64 range")

    try:  # the layout block's rx positions are checked here
        geometry = (default_geometry(cfg, n_rx=n_rx, n_tx=n_tx, n_subcarriers=n_su)
                    if positions is None else
                    ArrayGeometry(np.reshape(positions, (n_rx, 3)), n_tx, n_su))
        return CsiStream(cfg, geometry, packets["ts"].astype(np.int64), packets["iq"])
    except ValueError as exc:
        raise CsifFormatError(str(exc)) from exc
