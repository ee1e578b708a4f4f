"""Training pins: the sha256 of every checkpoint and loss CSV that
``run_training`` writes on a tiny dataset, and of every checkpoint's
content (its tensors and its metadata but ``config_hash``).

They cover the default method set, joint router fine-tuning, relu hidden
layers in the experts and the fusion baselines, and phase_reach. The file
hashes were recorded with one graph forward per sub-policy, re-recorded with
one score net per expert when the averaged sub-policy stack was retired, and
the checkpoints' again when the retired [expert] keys left the config, which
changed only each checkpoint's config_hash string: the content pins held.
Training must reproduce them bit for bit.
"""

import hashlib
import json

import pytest

from modalcompose import checkpoint as cpt
from modalcompose import pipeline as pl
from modalcompose.runconfig import RunConfig

PINNED = {
    "default": {
        "concat_seed3.mcpf":
            "5f57f682b6ed21a98ccf8c056bf25f3bcf165714c33a4af7bd4de29673c665ba",
        "expert-tac_seed3.mcpf":
            "3f1a0087bfd4609cd4b2029f5a8a41d347af295bbfc664f0d544daeb61639009",
        "expert-vis_seed3.mcpf":
            "c687a7349a0cbf93bdfe3fe2299e14999f886f000698c9fbeecb9bc69300996b",
        "loss_concat_seed3.csv":
            "b4cc692b659c3f15dd84ffbbb6757e06289fbb995cb3abeba3ef9873b8c7915e",
        "loss_expert-tac_seed3.csv":
            "d69ea9f8f050bccae7c206e93da4f9fcb962774d0b17e815eb3f556f9240fedc",
        "loss_expert-vis_seed3.csv":
            "db9b6a2e630b5bd361c7e978947418cec2cfefe39a100867a7d83bf2c61cb2ef",
        "loss_moe_seed3.csv":
            "446943b3c041ae2eb57976d8f9167f191340b0bde05ae833c77facb3a593f9c4",
        "loss_router_seed3.csv":
            "fbff853fe689531753f00f94570961c21ddfb594307a982a445488b8feaf54dd",
        "moe_seed3.mcpf":
            "998c6e425dab9932b90424915cff291088e5a825668105c17cd13d8a615a9bdf",
        "router_seed3.mcpf":
            "395009ba4b53cbac4e87e68435406acf00b7caf9ae35d0c226b46bbd6a3f0f51",
    },
    "joint": {
        "concat_seed3.mcpf":
            "c5b5cee08a54cf35e7a3635bea8c1f51d79b9f035cb52a30ee4e486b42eda347",
        "expert-tac_seed3.mcpf":
            "d21c3665096174eb94d6f14fb4057883adb7c781adae115dbf81cd0d4149f583",
        "expert-vis_seed3.mcpf":
            "959137c73c04f7b49640ccd82259adec30466c40bc9612133ad5f8fb63f990b0",
        "loss_concat_seed3.csv":
            "b4cc692b659c3f15dd84ffbbb6757e06289fbb995cb3abeba3ef9873b8c7915e",
        "loss_expert-tac_seed3.csv":
            "d69ea9f8f050bccae7c206e93da4f9fcb962774d0b17e815eb3f556f9240fedc",
        "loss_expert-vis_seed3.csv":
            "db9b6a2e630b5bd361c7e978947418cec2cfefe39a100867a7d83bf2c61cb2ef",
        "loss_moe_seed3.csv":
            "446943b3c041ae2eb57976d8f9167f191340b0bde05ae833c77facb3a593f9c4",
        "loss_router_seed3.csv":
            "cdb50195427a9b9d060ac5ab29ecc46214de226d1c14adc8fd2052ae379ae63f",
        "moe_seed3.mcpf":
            "af5d3e1b32d14ae98034443ecffb92c6ab5ca9c79af613ff931b4312618e710f",
        "router_seed3.mcpf":
            "cf0e60d148cd002d3d4cbdcb5402a4bccc0495abee7c00a54ddb3612e0c84396",
    },
    "phase": {
        "concat_seed3.mcpf":
            "36575889aee9d9142fe72d936a2301dfb68335f41253a019dd8ed0bc06293ce9",
        "expert-wpa_seed3.mcpf":
            "896b5b1b51f03be86badb96102530c6ae9b495a99c6de2231c715749753f8885",
        "expert-wpb_seed3.mcpf":
            "b54556116ca73180ab60b0c7ee87dfa84d5bb04d12a234fb7b0e88c6634dfdf7",
        "loss_concat_seed3.csv":
            "ac465df4788b5d46dfbff35413f75ad916931fb1e48f11543c712df333660d9e",
        "loss_expert-wpa_seed3.csv":
            "42639bbef0daa6b616273b48c5ff852c132214c031363bb0bb30626b5857894f",
        "loss_expert-wpb_seed3.csv":
            "82f0244e06d30b77709c91e63df0783735f994169dc9d9a52d513633bba1c7e1",
        "loss_moe_seed3.csv":
            "d706a8458c00e992344ee4c9de582ac23d314ac0a031e7d4b132a1fb10359f5d",
        "loss_router_seed3.csv":
            "e4197c188aa01f6f72803406e7cc13233ee452c6864c5ae4df1128b49b9f7056",
        "moe_seed3.mcpf":
            "9bde91e6ba6c3ad72b305d8603758177b688aad1f4167b14776f7ddb11c38906",
        "router_seed3.mcpf":
            "eaf4dc085fd08305c032ce88d868e29ad3e2a08b33c7c7eb36abb0c3bfa28bb6",
    },
    "relu": {
        "concat_seed3.mcpf":
            "6005bd0df202fe01935d60d1c049dcdcb1d425b1aa4f484390f2b943ac0b8eef",
        "expert-tac_seed3.mcpf":
            "aaaf3be387a5d7a5ae8bbd9bbf5a3ff1e31bf6aff5010b83790bb6290bd16880",
        "expert-vis_seed3.mcpf":
            "ac81a91f1e149390cdb8d5fcb03433a177c4b279a04cff351b355e26ec485174",
        "loss_concat_seed3.csv":
            "276b15d5fc1b46ba0d14d9542e992da70b00ab8e4e31f9539000b7bd2a2592c1",
        "loss_expert-tac_seed3.csv":
            "7c59486b2506b2d0070c518bbd39b1d8e404b5302e608c0f648d5be678d8270d",
        "loss_expert-vis_seed3.csv":
            "e9fb1fbdd6a16801bf69fe21fbd1cb151ec85cbfea7a1729aedfa16ee341f4fd",
        "loss_moe_seed3.csv":
            "ab7bd0d985bbe44d7313293c7655d21ad1a3dfbb7e7d082b738a0fe6256c3a5e",
        "loss_router_seed3.csv":
            "38dca827d740140e4b65b38efd4fe8fd742d871f78833300c792605b5bc80f60",
        "moe_seed3.mcpf":
            "5c8affdbf3061d7f0a5d506825ed553d16956343549161e48adf32afab7fb8a5",
        "router_seed3.mcpf":
            "1fc2441a0dd801fa1534e7c8ac93d5dc0957bc94e8356ca942ef1e32afe1953a",
    },
}


def pin_config(name, out):
    cfg = RunConfig().with_section("train", steps=30, router_steps=15)
    if name == "joint":
        cfg = cfg.with_section("router", joint=True)
    elif name == "phase":
        cfg = cfg.with_section("env", name="phase_reach")
    elif name == "relu":
        cfg = cfg.with_section("expert", activation="relu")
    return cfg.with_section("run", demos=2, seed=3, out=str(out))


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """run_training's outputs for a pin config, trained once per module:
    {file name: path}, the dataset left out."""
    runs = {}

    def outputs(name):
        if name not in runs:
            out = tmp_path_factory.mktemp(name)
            cfg = pin_config(name, out)
            data = pl.gen_data(cfg)
            pl.run_training(cfg)
            runs[name] = {p.name: p for p in sorted(out.iterdir()) if p != data}
        return runs[name]

    return outputs


@pytest.mark.parametrize("name", sorted(PINNED))
def test_training_outputs_are_pinned(trained, name):
    got = {f: hashlib.sha256(p.read_bytes()).hexdigest() for f, p in trained(name).items()}
    assert got == PINNED[name]


def content_digest(path) -> str:
    """sha256 of a checkpoint's metadata, less its provenance-only
    config_hash, as canonical JSON, then of each tensor's name, shape and
    float64 LE bytes in file order."""
    ck = cpt.load_checkpoint(path)
    meta = {k: v for k, v in ck.metadata.items() if k != "config_hash"}
    h = hashlib.sha256(json.dumps(meta, sort_keys=True, separators=(",", ":")).encode())
    for name, t in ck.tensors.items():
        h.update(f"{name}{t.shape}".encode() + t.astype("<f8").tobytes())
    return h.hexdigest()


# Each checkpoint's content: every tensor and every metadata field but
# config_hash. Recorded with the file pins above; a change to how configs
# are hashed re-records those, never these.
CONTENT_PINNED = {
    "default": {
        "concat_seed3.mcpf":
            "1a08456ee4c623fb5c2eafb8588f796a820a553b9046c6d9731822d0499059f8",
        "expert-tac_seed3.mcpf":
            "4d87e35218cb36e5b64f59661dd050cb52cbe5518f8e2d7c0a5c005a091a9ec5",
        "expert-vis_seed3.mcpf":
            "41ec71f9ec682ba1ad7b326a8c855be23c3c3978b703fd22f0fe524ece55c2cb",
        "moe_seed3.mcpf":
            "595e48557c9ff49e3f1aa94203b101a4c3f3944f71824110d729f32357a1bd50",
        "router_seed3.mcpf":
            "e48db6241be82553e54ad8d3475317fa92ce886b4f440cd6f3e352ea7a664f5f",
    },
    "joint": {
        "concat_seed3.mcpf":
            "1a08456ee4c623fb5c2eafb8588f796a820a553b9046c6d9731822d0499059f8",
        "expert-tac_seed3.mcpf":
            "a226c4aec61132035a56a8b7c4cff8a40da5eebf855e535ef35aad2ea388c2e8",
        "expert-vis_seed3.mcpf":
            "fdedf8e2b743f963e51ef1c5eb0d2e1e7a2b83060c3d7fba1bba1ca35b165e0f",
        "moe_seed3.mcpf":
            "595e48557c9ff49e3f1aa94203b101a4c3f3944f71824110d729f32357a1bd50",
        "router_seed3.mcpf":
            "0f1b3576aff2561f06dee1e3517e75f4a68b969e5dbb6c3b69e9ec3b197d84dd",
    },
    "phase": {
        "concat_seed3.mcpf":
            "75f8fefaf0d66604f1ee734671de8144f2d947c8d968ddeba85df24ed89457a6",
        "expert-wpa_seed3.mcpf":
            "84f097b31c4a078606103a7c1197d4b75af04f58b7456c7d3ec300a72738cd5d",
        "expert-wpb_seed3.mcpf":
            "60fd5cb045a3fb080bf3d70fb437a555900e156fb87d402b2062e7134dfbfa77",
        "moe_seed3.mcpf":
            "efb96bbb1ef9659254c4933dfddbd105391c0572b84dda8bdf0e0dfa15a5cce3",
        "router_seed3.mcpf":
            "15e8cbdb3c8a377d9f205a0877e7ea31dc8e3c6225bf6a2307cc25b95462ed0f",
    },
    "relu": {
        "concat_seed3.mcpf":
            "799d6a2fecbf295291b06c6341868a884b1b77b55b36d8cafb42098543091056",
        "expert-tac_seed3.mcpf":
            "cbfb4224ac3b518efb2d65e9919d35f2e227d5f70e152f04cd01c799397133b2",
        "expert-vis_seed3.mcpf":
            "f4381ebe940d68673436de36adb0aac002a5db196f6cf5cb15a3d03077bf9d6c",
        "moe_seed3.mcpf":
            "d12b8384e8e4e8dfd9ff1d0d9d41e088bdda86c8c8f48a134706ff5db03bc616",
        "router_seed3.mcpf":
            "959456cc3ceb7aa9d033d43e5d5db39c50d5ecabe0e665f61b266bda138469c0",
    },
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_checkpoint_contents_are_pinned(trained, name):
    got = {f: content_digest(p) for f, p in trained(name).items() if f.endswith(".mcpf")}
    assert got == CONTENT_PINNED[name]
