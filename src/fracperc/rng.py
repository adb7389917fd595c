"""Counter-based randomness keyed by cube addresses.

Every retention decision in a percolation tree is a pure function of
(seed, cube address): the root gets a 64-bit key derived from the seed, and a
child's key is a hash of its parent's key and the child offset.  This makes
subtrees independent, replays exact, and the coupled ensemble (one uniform per
cube, sliced at different p) free.

The hash is splitmix64, applied to the XOR of the current key with a salted
multiple of the child offset.  All helpers accept numpy uint64 arrays so whole
tree levels expand vectorized.
"""

import numpy as np

U64 = np.uint64
_MASK = (1 << 64) - 1

GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
CHILD_SALT = 0xD1342543DE82EF95
COUNT_SALT = 0xA24BAED4963EE407
RESAMPLE_SALT = 0x2545F4914F6CDD1D


def splitmix64(x):
    """splitmix64 finalizer; x is a uint64 scalar or ndarray (wraps mod 2^64)."""
    x = np.asarray(x, dtype=U64)
    with np.errstate(over="ignore"):
        x = x + U64(GOLDEN)
        x = (x ^ (x >> U64(30))) * U64(_MIX1)
        x = (x ^ (x >> U64(27))) * U64(_MIX2)
    return x ^ (x >> U64(31))


def root_key(seed):
    """Key of the unit cube for a 64-bit seed (or array of seeds)."""
    if np.isscalar(seed) or isinstance(seed, int):
        return splitmix64(U64(int(seed) & _MASK))
    return splitmix64(np.asarray(seed, dtype=U64))


def derive(keys, salt):
    """Independent stream derived from existing keys (resampling, count draws)."""
    keys = np.asarray(keys, dtype=U64)
    return splitmix64(keys ^ U64((int(salt) * CHILD_SALT) & _MASK))


def replicate_seeds(base_seed, replicates):
    """Seeds of replicates 0..replicates-1 of a run with master seed
    base_seed: replicate r's is derive(root_key(base_seed), r + 1)."""
    key = root_key(int(base_seed))
    return [int(derive(key, r + 1)) for r in range(replicates)]


def child_keys(keys, d):
    """Keys of all 2**d children. Shape (..., 2**d) appended to keys' shape."""
    keys = np.asarray(keys, dtype=U64)
    offsets = np.arange(1, (1 << d) + 1, dtype=U64) * U64(CHILD_SALT)
    return splitmix64(keys[..., None] ^ offsets)


def key_uniform(keys):
    """Uniform in [0, 1) attached to each key (53-bit mantissa)."""
    keys = np.asarray(keys, dtype=U64)
    return (keys >> U64(11)).astype(np.float64) * 2.0 ** -53
