"""Named random substreams.

All randomness in the package flows from a single root seed. Each consumer
(data generation, weight init, epoch shuffles, Monte Carlo simulation)
derives its own independent stream from the root seed and a stream name, so
adding draws to one consumer never perturbs another.
Epoch and step indices are folded into the name, which makes every stream
stateless and checkpoint/resume trivially bit-exact.
"""

import numpy as np


def substream(seed: int, name: str) -> np.random.Generator:
    """Independent PCG64 stream for (seed, name), stable across platforms."""
    tag = int.from_bytes(name.encode("utf-8"), "little")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((int(seed), tag))))
