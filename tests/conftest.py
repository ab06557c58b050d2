import numpy as np
import pytest

from censet.identified_set import geometry
from censet.observation import AccessMode, _batch, _chunks, from_pairs


def make_observation(vocab_size, scores, mode=AccessMode.LOGITS, tokens=None,
                     position_id="test"):
    if tokens is None:
        tokens = range(len(scores))
    return from_pairs(vocab_size, tokens, scores, mode, position_id)


def make_geometry(vocab_size, scores, **kwargs):
    return geometry(make_observation(vocab_size, scores, **kwargs))


@pytest.fixture
def v4_geometry():
    """V=4, K=2, scores (1, 0): U_K = 2 / (e + 3)."""
    return make_geometry(4, [1.0, 0.0])


def random_logits(rng, v, spread=2.0):
    return np.asarray(rng.normal(0.0, spread, size=v))


def chunked_batches(source):
    """A chunked parse as a sequence of batches, in input order.

    Each chunk of :func:`censet.observation._chunks` gets the pair checks of
    :func:`censet.observation._batch`.  A chunk that keeps no record yields
    nothing, so an empty input yields no batch; an error is raised only after
    the batch of the records before its line has been yielded.
    """
    for records, ids, values, failure in _chunks(source, chunked=True):
        batch, error = _batch(records, ids, values)
        if len(batch):
            yield batch
        if error is not None or failure is not None:
            raise error or failure
