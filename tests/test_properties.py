"""Property tests (hypothesis) for invariants that refactors must keep."""

import numpy as np
import pytest

import signalshift as ss
from signalshift.network import params_to_text

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

# every finite float64, with subnormals and values near the range ends drawn often
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [5e-324, -5e-324, 2.2e-308, -0.0, 1e300, -1e300, 1.7976931348623157e308])


@st.composite
def any_params(draw) -> ss.QNetworkParams:
    embed_dim, compete_dim = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    size = ss.QNetworkParams(embed_dim, compete_dim).theta.size
    return ss.QNetworkParams(embed_dim, compete_dim,
                             draw(arrays(np.float64, size, elements=FINITE)))


@settings(max_examples=100, deadline=None)
@given(params=any_params())
def test_checkpoint_round_trip_is_bit_exact(tmp_path_factory, params):
    path = tmp_path_factory.mktemp("ckpt") / "params.txt"
    ss.save_params(params, path)
    loaded = ss.load_params(path)
    assert (loaded.embed_dim, loaded.compete_dim) == (params.embed_dim, params.compete_dim)
    assert np.array_equal(loaded.theta.view(np.uint64), params.theta.view(np.uint64))
    assert params_to_text(loaded) == path.read_text()
