"""Fixtures shared by the test modules: one system and one 1-D tile config per module."""

import pytest

from hermband.lp import bump_system
from hermband.tiles import TileConfig


@pytest.fixture(scope="module")
def sys():
    return bump_system()


@pytest.fixture(scope="module")
def cfg():
    return TileConfig()
