"""Corrupted checkpoints: every typed reader either reads a truncated or
byte-flipped file or refuses it with FormatError, never another exception."""

import numpy as np
import pytest

from modalcompose import checkpoint as cpt
from modalcompose.compose import train_concat_policy, train_moe_policy
from modalcompose.errors import FormatError
from tests.conftest import constant_action_dataset
from tests.test_checkpoint import saved_expert_checkpoint, small_cfg

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@pytest.fixture(scope="module")
def reader_inputs(tmp_path_factory):
    """The bytes of a saved default expert, a beta_tilde expert, a concat and
    a MoE checkpoint, each with its kind's typed reader, and a path to write
    a corrupted copy to."""
    d = tmp_path_factory.mktemp("fuzz")
    tilde = small_cfg().with_section("diffusion", sigma_mode="beta_tilde")
    inputs = {}
    for name, cfg in (("expert", small_cfg()), ("expert_beta_tilde", tilde)):
        (d / name).mkdir()
        path = saved_expert_checkpoint(d / name, cfg)[1]
        inputs[name] = (path.read_bytes(), cpt.expert_from_checkpoint)
    data = constant_action_dataset(np.array([0.2, -0.2]))
    for name, train in (("concat", train_concat_policy), ("moe", train_moe_policy)):
        path = d / f"{name}.mcpf"
        cpt.save_fusion(train(data, small_cfg(), np.random.default_rng(4)), path,
                        env_name="occluded_reach", seed=1, config_hash="h")
        inputs[name] = (path.read_bytes(), cpt.fusion_from_checkpoint)
    return inputs, d / "bad.mcpf"


@pytest.mark.parametrize("name", ["expert", "expert_beta_tilde", "concat", "moe"])
@settings(max_examples=100, database=None, deadline=None)
@given(data=st.data(), truncate=st.booleans())
def test_corrupted_checkpoints_read_or_raise_format_error(reader_inputs, name, data, truncate):
    """A checkpoint truncated or with one byte flipped either reads through
    load_checkpoint and its kind's typed reader, or is refused with
    FormatError, never another exception. A flipped payload byte may still
    give a finite weight, which reads."""
    inputs, path = reader_inputs
    blob, read = inputs[name]
    pos = data.draw(st.integers(0, len(blob) - 1), label="pos")
    if truncate:
        bad = blob[:pos]
    else:
        bad = bytearray(blob)
        bad[pos] ^= data.draw(st.integers(1, 255), label="mask")
    path.write_bytes(bytes(bad))
    try:
        read(cpt.load_checkpoint(path))
    except FormatError:
        pass
