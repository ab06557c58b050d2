import numpy as np
import pytest

from censet.identified_set import geometry
from censet.numerics import reset_policy
from censet.observation import AccessMode, TopKObservation, summarize


@pytest.fixture(autouse=True)
def _default_policy():
    reset_policy()
    yield
    reset_policy()


def make_observation(vocab_size, scores, mode=AccessMode.LOGITS, tokens=None,
                     position_id="test"):
    if tokens is None:
        tokens = range(len(scores))
    return TopKObservation(
        vocab_size=vocab_size,
        revealed=tuple((int(t), float(s)) for t, s in zip(tokens, scores)),
        mode=mode,
        position_id=position_id,
    )


def make_geometry(vocab_size, scores, **kwargs):
    return geometry(summarize(make_observation(vocab_size, scores, **kwargs)))


@pytest.fixture
def v4_geometry():
    """V=4, K=2, scores (1, 0): U_K = 2 / (e + 3)."""
    return make_geometry(4, [1.0, 0.0])


def random_logits(rng, v, spread=2.0):
    return np.asarray(rng.normal(0.0, spread, size=v))
