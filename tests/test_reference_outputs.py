"""The toy model's outputs match the arrays pinned in tests/data.

A refactor that is meant to keep the outputs must pass this unchanged;
see reference_outputs.py for the cases and how the file is written.
"""
import numpy as np
import pytest

import reference_outputs

RTOL = 1e-12
MAX_BYTES = 100_000


@pytest.fixture(scope="module")
def pinned():
    with np.load(reference_outputs.PATH) as f:
        return dict(f)


@pytest.fixture(scope="module")
def current():
    return reference_outputs.compute()


def test_fixtures_are_small():
    assert reference_outputs.PATH.stat().st_size < MAX_BYTES


def test_every_case_is_pinned(pinned, current):
    assert sorted(pinned) == sorted(current)


@pytest.mark.parametrize("name", ["sinusoidal_embed", "vit_forward_moving",
                                  "vit_forward_static", "compress_moving",
                                  "pipeline_image", "pipeline_video"])
def test_output_matches_pinned(name, pinned, current):
    want, got = pinned[name], current[name]
    assert got.shape == want.shape
    # relative to the largest entry, so entries near 0 do not need 1e-12 of themselves
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=RTOL * np.abs(want).max())
