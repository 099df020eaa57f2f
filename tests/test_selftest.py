import pytest

from crisscross.selftest import suite_propagation


@pytest.mark.parametrize("seed", [100041, 100175, 100375])
def test_propagation_suite_passes_at_formerly_saturated_seeds(seed):
    # at weight scale 0.5 these seeds saturated the softmax, so an R=2
    # sensitivity fell below the central-difference floor (100175, 100375)
    # or below the 1e-12 influence threshold itself (100041)
    res = suite_propagation(seed=seed)
    assert res.passed, res.detail
