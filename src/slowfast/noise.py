"""Reproducible cylindrical Gaussian sampling with counter-based streams.

Every draw is a pure function of (master_seed, stream_tag, step_index,
sample_index, mode).  Streams are realized with a Philox generator keyed by
(master_seed, tag, step); each sample owns a fixed, block-aligned span of
counter space, so any partition of the sample range into batches (threads,
chunks) reproduces the serial output bit for bit.

Normals are produced by inverse-CDF transform of fixed-consumption uniform
draws; rejection samplers would consume a data-dependent number of words and
break the counter layout.
"""

from __future__ import annotations

from enum import IntEnum

import numpy as np
from numpy.random import Generator, Philox, SeedSequence
from scipy.special import ndtri

from .spectral import SpectrumSpec

__all__ = ["StreamTag", "sample_cylindrical_batch"]


class StreamTag(IntEnum):
    # the values key the streams: a value that changes moves every draw of its tag
    GAMMA_1 = 1
    OU_EXACT = 3


def _stream(master_seed: int, tag: StreamTag, step: int, first_block: int) -> Generator:
    seed = int(master_seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"master_seed must lie in [0, 2**64), got {seed}")
    key = SeedSequence([seed, int(tag), int(step)])
    # an int sets the whole 256-bit counter exactly; a list past 2^63 would pass through float64
    return Generator(Philox(key=key.generate_state(2, np.uint64), counter=first_block))


def sample_cylindrical_batch(
    spec: SpectrumSpec,
    master_seed: int,
    tag: StreamTag,
    step_index: int,
    first_sample: int,
    count: int,
) -> np.ndarray:
    """(count, J) standard normals for samples first_sample..first_sample+count-1.

    Bit-identical to stacking single draws; independent of how the sample
    range is split into batches.
    """
    if count < 0 or first_sample < 0:
        raise ValueError("sample range must be nonnegative")
    # Philox emits 4 uint64 words per counter block; pad so every sample starts on one
    wps = 4 * ((spec.J + 3) // 4)
    gen = _stream(master_seed, tag, step_index, first_sample * (wps // 4))
    # the words of the first J modes; the whole block when J is a multiple of 4
    u = gen.random((count, wps))[:, : spec.J]
    # u is a multiple of 2^-53 in [0, 1); shift to the cell midpoint so the
    # inverse CDF never sees 0 or 1, and transform in place
    u += 2.0**-54
    ndtri(u, out=u)
    return np.ascontiguousarray(u)
