"""Removal of per-packet STO/PDD phase offsets via pooled linear phase fitting.

Sampling time offset and packet detection delay add, per packet, a phase ramp
``eta0 + eta1 * n`` over subcarrier index ``n`` that is common to all antenna
pairs of a receiver.  Per packet we unwrap the phase of each (rx, tx) pair
along the subcarrier axis, fit one common line pooled over all pairs, and
divide it out.  Magnitudes are untouched.

The pooled slope comes from an ordinary least-squares fit; the intercept is
recovered in the complex domain (angle of the slope-compensated sum) so the
result does not depend on which 2*pi branch the unwrap picked per pair.
Removing the common slope also removes the common true-delay component, so
time of flight becomes relative after sanitization; the 2D image marginalizes
over delay, so downstream angle estimates are unaffected.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .stream import CsiStream, block_len, steering_ordered_zeros


def sanitize(stream: CsiStream) -> CsiStream:
    """Return a stream with per-packet common phase offset and slope removed."""
    return replace(stream, tensors=sanitize_tensors(stream.tensors))


def sanitize_tensors(tensors: np.ndarray) -> np.ndarray:
    """Sanitize a (n_packets, rx, tx, subcarrier) array; see :func:`sanitize`.

    The bits do not depend on the input's memory layout or precision: a
    complex64 capture is sanitized to the bits of its widened form.
    """
    n, n_rx, n_tx, n_su = tensors.shape
    if n_su < 2:
        raise ValueError(f"sanitize needs at least 2 subcarriers, got {n_su}")
    n_idx = np.arange(n_su, dtype=float)
    centered = n_idx - n_idx.mean()
    norm = centered @ centered
    n_pairs = n_rx * n_tx

    out = steering_ordered_zeros(n, n_rx, n_tx, n_su)
    step = block_len(n_rx * n_tx * n_su)
    for start in range(0, n, step):
        # packet-major (rx, tx, subcarrier) order, whatever the input's
        # layout and precision, fixes the order of the sums and so the bits
        block = np.ascontiguousarray(tensors[start:start + step], dtype=complex)
        phases = np.unwrap(np.angle(block), axis=-1)
        slopes = np.einsum("prmn,n->p", phases, centered) / (n_pairs * norm)
        detrended = block * np.exp(-1j * slopes[:, None, None, None] * n_idx)
        intercepts = np.angle(detrended.sum(axis=(1, 2, 3)))
        np.multiply(detrended, np.exp(-1j * intercepts)[:, None, None, None],
                    out=out[start:start + step])
    return out
