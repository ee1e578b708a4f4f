"""Corrupted files: every typed checkpoint reader, and ``Dataset.read``,
either reads a truncated or byte-flipped file or refuses it with
FormatError, never another exception. Arbitrary manifests load or are
refused with FormatError or ContractError."""

import numpy as np
import pytest

from modalcompose import checkpoint as cpt
from modalcompose import experts as xp
from modalcompose import pipeline as pl
from modalcompose import router as rt
from modalcompose.compose import train_concat_policy, train_moe_policy
from modalcompose.diffusion import make_schedule
from modalcompose.envs import Dataset, generate_dataset, make_env_spec
from modalcompose.errors import ContractError, FormatError
from tests.conftest import constant_action_dataset
from tests.test_checkpoint import demo_stats, saved_expert_checkpoint, small_cfg

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


@pytest.fixture(scope="module")
def manifest_path(tmp_path_factory):
    """The path of a manifest beside a vis and a tac expert and a router over
    them, which compose."""
    d = tmp_path_factory.mktemp("fuzz_manifest")
    ids = dict(env_name="occluded_reach", seed=0, config_hash="h")
    experts = [xp.init_expert(mod, dim, 2, 2, small_cfg(), np.random.default_rng(seed))
               for mod, dim, seed in (("vis", 5, 1), ("tac", 3, 2))]
    for ex in experts:
        cpt.save_expert(ex, demo_stats(), make_schedule(), d / f"{ex.modality}.mcpf", **ids)
    router = rt.init_router(("vis", "tac"), tuple(ex.enc.emb_dim for ex in experts), (8,),
                            np.random.default_rng(3))
    cpt.save_router(router, demo_stats(), make_schedule(), d / "router.mcpf", **ids)
    return d / "m.txt"


def _rarely(rare, usual):
    """rare in about one case of four, else usual."""
    return st.tuples(st.booleans(), st.booleans()).flatmap(
        lambda flips: rare if all(flips) else usual)


def _values(*likely: str):
    """A manifest value: arbitrary text at times, else one of the likely ones."""
    return _rarely(st.text(max_size=20), st.sampled_from(likely))


_VALUES = {"expert": _values("vis.mcpf", "tac.mcpf", ""),
           "router": _values("router.mcpf", "vis.mcpf", ""),
           "env": _values("occluded_reach", "phase_reach"),
           "strategy": _values("soft", "hard", "top2"), "stats_hash": _values(""),
           "weights": _values("0.5,0.5", "1", "1,3", "0,0", "nan,1", "inf,0", "-1,2")}
_WEIGHTINGS = _rarely(st.sampled_from([(), ("router", "weights")]),
                      st.sampled_from([("router",), ("weights",)]))
# at times a tail of raw bytes or of arbitrary text
_TAIL = _rarely(st.one_of(st.binary(max_size=16), st.text(max_size=20).map(str.encode)),
                st.just(b""))


@st.composite
def _manifests(draw) -> bytes:
    """Up to three expert lines, mostly exactly one of router and weights, and
    each other key at most once, in any order, each value drawn from its
    key's _VALUES; then a _TAIL."""
    lines = [("expert", draw(_VALUES["expert"])) for _ in range(draw(st.integers(0, 3)))]
    weighting = draw(_WEIGHTINGS)
    lines += [(key, draw(_VALUES[key])) for key in pl._MANIFEST_KEYS
              if key in weighting or key in ("env", "strategy", "stats_hash")
              and draw(st.booleans())]
    text = "".join(f"{key} = {value}\n" for key, value in draw(st.permutations(lines)))
    return text.encode() + draw(_TAIL)


@pytest.mark.filterwarnings("ignore::UserWarning")   # renormalized weights
@settings(max_examples=200, database=None, deadline=None)
@given(blob=_manifests())
def test_manifests_load_or_raise_format_or_contract_error(manifest_path, blob):
    """A manifest over the six keys with arbitrary values, at times with a
    tail of raw bytes or arbitrary text, beside two experts and a router
    that compose, either loads or is refused with FormatError or
    ContractError."""
    manifest_path.write_bytes(blob)
    try:
        pl.load_manifest(manifest_path)
    except (FormatError, ContractError):
        pass
