from __future__ import annotations

import pytest

from aebayes.data import Dataset
from aebayes_testkit import MIXED_SITE_SIZES, make_dataset


@pytest.fixture
def mixed_dataset() -> Dataset:
    return make_dataset(MIXED_SITE_SIZES, seed=9)
