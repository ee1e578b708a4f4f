"""The stream contract: ``stream(*labels)`` is the generator
``Generator(Philox(key=mix64(*labels)))`` in its state and in its draws."""

import numpy as np
import pytest

from modalcompose.rngstream import MASK64, mix64, stream

LABELS = {
    "zero": (0,),
    "max_u64": (MASK64,),
    "negative": (-7,),
    "long": (3, 0, MASK64, -1, *range(40)),
}


@pytest.mark.parametrize("labels", LABELS.values(), ids=LABELS.keys())
def test_stream_is_philox_keyed_by_mix64(labels):
    """Key words [mix64, 0], counter 0 and buffer position as Philox(key=...)
    sets them; then the same 1,000 normals and 1,000 integer draws, bit for
    bit, and the same state after them."""
    got, want = stream(*labels), np.random.Generator(np.random.Philox(key=mix64(*labels)))
    state, ref = got.bit_generator.state, want.bit_generator.state
    assert state["state"]["key"].tolist() == [mix64(*labels), 0]
    assert ref["state"]["key"].tolist() == [mix64(*labels), 0]
    assert state["state"]["counter"].tolist() == ref["state"]["counter"].tolist() == [0] * 4
    assert (state["buffer_pos"], state["has_uint32"]) == (ref["buffer_pos"], ref["has_uint32"])
    assert got.standard_normal(1000).tobytes() == want.standard_normal(1000).tobytes()
    for high in (2, 51, 2**63):
        assert (got.integers(0, high, size=1000).tobytes()
                == want.integers(0, high, size=1000).tobytes())
    assert str(got.bit_generator.state) == str(want.bit_generator.state)
