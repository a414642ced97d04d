"""The CCH unit suite once more, with numpy monkeypatched away.

Every case of ``test_cch.py`` is re-collected here (the star import pulls
in its test classes and module-scoped fixtures) and runs against an index
that can only take the scalar customization loop — the configuration of a
plain ``pip install repro`` without the ``np`` extra.
"""

import pytest

from repro.index import cch as cch_module
from tests.index.test_cch import *  # noqa: F401,F403 - re-collect every case


@pytest.fixture(scope="module", autouse=True)
def _numpy_absent():
    patch = pytest.MonkeyPatch()
    patch.setattr(cch_module, "_numpy", None)
    yield
    patch.undo()


def test_scalar_loop_is_the_one_running(small_grid, monkeypatch):  # noqa: F405
    def vectorized_must_not_run(self, weights):
        raise AssertionError("numpy loop ran with numpy monkeypatched away")

    monkeypatch.setattr(
        cch_module.CustomizableContractionHierarchy,
        "_customize_levels",
        vectorized_must_not_run,
    )
    cch_module.CustomizableContractionHierarchy(small_grid.copy())
