import os
from pathlib import Path

import numpy as np
import pytest

import dyadicpara
from dyadicpara import AdaptedFamily, standard_triple

# the CLI tests run `python -m dyadicpara.cli` in a child process: give it the
# package this session imports, also when pytest found it through pyproject
_SRC = str(Path(dyadicpara.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def haar1():
    return AdaptedFamily.haar(1)


@pytest.fixture
def haar2():
    return AdaptedFamily.haar(2)


@pytest.fixture
def triple1():
    return standard_triple(1, "haar")


@pytest.fixture
def triple2():
    return standard_triple(2, "haar")
