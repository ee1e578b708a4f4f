"""Corrupted files: every typed checkpoint reader, and ``Dataset.read``,
either reads a truncated or byte-flipped file or refuses it with
FormatError, never another exception."""

import numpy as np
import pytest

from modalcompose import checkpoint as cpt
from modalcompose.compose import train_concat_policy, train_moe_policy
from modalcompose.envs import Dataset, generate_dataset, make_env_spec
from modalcompose.errors import FormatError
from tests.conftest import constant_action_dataset
from tests.test_checkpoint import saved_expert_checkpoint, small_cfg

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def _corrupted(blob: bytes, data, truncate: bool, last: int) -> bytes:
    """blob cut at a drawn position in 0..last, or with the byte there flipped
    by a drawn nonzero mask."""
    pos = data.draw(st.integers(0, last), label="pos")
    if truncate:
        return blob[:pos]
    bad = bytearray(blob)
    bad[pos] ^= data.draw(st.integers(1, 255), label="mask")
    return bytes(bad)


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
    path.write_bytes(_corrupted(blob, data, truncate, len(blob) - 1))
    try:
        read(cpt.load_checkpoint(path))
    except FormatError:
        pass


@pytest.fixture(scope="module")
def dataset_bytes(tmp_path_factory):
    """The bytes of a two-episode occluded_reach dataset (about 4 kB), and a
    path to write a corrupted copy to."""
    d = tmp_path_factory.mktemp("fuzz_data")
    generate_dataset(make_env_spec("occluded_reach"), 2, seed=3, path=d / "demo.mcds")
    return (d / "demo.mcds").read_bytes(), d / "bad.mcds"


@settings(max_examples=100, database=None, deadline=None)
@given(data=st.data(), truncate=st.booleans())
def test_corrupted_datasets_read_or_raise_format_error(dataset_bytes, data, truncate):
    """A dataset truncated or with one byte flipped either reads or is refused
    with FormatError, never another exception. Half the positions fall in
    the header and the first episode's length, where the counts and widths
    are; a flipped row or bound byte may still give a finite value, which
    reads."""
    blob, path = dataset_bytes
    head = data.draw(st.booleans(), label="in header")
    path.write_bytes(_corrupted(blob, data, truncate, 100 if head else len(blob) - 1))
    try:
        Dataset.read(path)
    except FormatError:
        pass
