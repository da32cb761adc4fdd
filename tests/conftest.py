import copy

import numpy as np
import pytest
from hypothesis import strategies as st

from alphaneg.linalg import herm_part


def random_hermitian(rng, d, scale=1.0):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * herm_part(g)


def random_pd(rng, d, trace=None):
    g = rng.standard_normal((d, d + 2)) + 1j * rng.standard_normal((d, d + 2))
    m = g @ g.conj().T + 1e-3 * np.eye(d)
    if trace is not None:
        m *= trace / np.trace(m).real
    return m


def random_psd(rng, d, rank):
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    return g @ g.conj().T


@pytest.fixture
def rng():
    return np.random.default_rng(20240211)


# Arbitrary JSON values, and JSON shaped like the state and channel formats:
# dims lists and matrices of entry lists, mostly square with well-formed
# [re, im] pairs.
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=8,
)
NUMBER = st.sampled_from([0, 1, 0.5, -1]) | st.integers() | st.floats()
PAIR = st.lists(NUMBER, min_size=2, max_size=2)
ENTRY = PAIR | st.lists(NUMBER | st.booleans(), max_size=3) | JSON
SQUARE = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(PAIR, min_size=n, max_size=n), min_size=n, max_size=n)
)
MATRIX = SQUARE | st.lists(st.lists(ENTRY, max_size=3), max_size=3) | JSON
DIMS = st.lists(st.integers(-1, 3), max_size=3) | st.integers(-1, 3) | JSON


def replace_at(payload, path, value):
    """Copy of a JSON payload with the item at ``path`` (a key sequence)
    replaced by ``value``."""
    out = copy.deepcopy(payload)
    target = out
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return out


def corrupted(payload, paths):
    """A valid payload with the item at one of ``paths`` replaced by an
    arbitrary value: the way a real file goes bad, and the way to reach the
    validators behind the parser."""
    return st.builds(replace_at, st.just(payload), paths, NUMBER | ENTRY | DIMS)
