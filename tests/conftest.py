import os
from pathlib import Path

import numpy as np
import pytest

import frechet
from frechet import (
    BuresWassersteinSpace,
    EuclideanSpace,
    LqSequenceSpace,
    PersistenceDiagramSpace,
    SpiderSpace,
    Wasserstein1D,
)


def fresh_env(**extra: str) -> dict:
    """The environment for a fresh interpreter that imports this tree's
    ``frechet``, with ``extra`` variables set."""
    src = str(Path(frechet.__file__).resolve().parent.parent)
    return dict(os.environ, **extra,
                PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def pt(*coords):
    return np.asarray(coords, dtype=float)


@pytest.fixture
def line():
    return EuclideanSpace(dim=1)


@pytest.fixture
def plane():
    return EuclideanSpace(dim=2)


def all_spaces():
    """One instance per concrete space, for the randomized suites."""
    return [
        EuclideanSpace(dim=2),
        LqSequenceSpace(truncation=3, q=1.5),
        SpiderSpace(legs=3),
        Wasserstein1D(q=2.0),
        BuresWassersteinSpace(dim=2),
        PersistenceDiagramSpace(q=2.0),
    ]
