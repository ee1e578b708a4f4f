"""Training pins: the sha256 of every checkpoint and loss CSV that
``run_training`` writes on a tiny dataset.

They cover the default method set, joint router fine-tuning, relu hidden
layers in the experts and the fusion baselines, and phase_reach. The hashes
were recorded with one graph forward per sub-policy, then re-recorded with
one score net per expert (``[expert] n_sub = 1``) when the averaged
sub-policy stack was retired; training must reproduce them bit for bit.
"""

import hashlib

import pytest

from modalcompose import pipeline as pl
from modalcompose.runconfig import RunConfig

PINNED = {
    "default": {
        "concat_seed3.mcpf":
            "2619a6012f434f7cb5fd78cf06dff92305e4d88c16fe2f45137bf9cde0e1cd7e",
        "expert-tac_seed3.mcpf":
            "3b1729380bc672559fe050ce248b2fb2bc3a4aade04c26ef1674b271af3fd29a",
        "expert-vis_seed3.mcpf":
            "9d72510aa174b2634b37f0fe3e8245bcd27af1b00ee87d9332386f320bf1b243",
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
            "4a5a4d72f9866cce82c4a289b70c82e1c07495c78775c0dd556019ac61bb4cc3",
        "router_seed3.mcpf":
            "f3cdd35e138bb6395e353e829f5865b241bb59d9b8e44f55a77404c02e1ed169",
    },
    "joint": {
        "concat_seed3.mcpf":
            "08d4cb4a5f150b64519c0c7808af2b8def5254b7928bb8c93c0d5727e024656c",
        "expert-tac_seed3.mcpf":
            "4712572001f2fb3f7573078a341db13e9773d72339129fd15c2099fc5a15a304",
        "expert-vis_seed3.mcpf":
            "106bd1cbe029d2ccc4f1e24c8e8e42da1ba03e43c37eac7a68bbde032a5b773a",
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
            "bb14136e92fb240b7449940ddb4fba2de7dcbf9a379a0c7fb1d68aaee1541255",
        "router_seed3.mcpf":
            "55ad03c18dd269830bc4b214e1d992a96ae13ec9684126b37f9a87fc24eb4266",
    },
    "phase": {
        "concat_seed3.mcpf":
            "d863fef93bf3c3d3e752e8176a9dd9119d9aa0f8d6c596b5f46f2064d7a58b7d",
        "expert-wpa_seed3.mcpf":
            "10c8a3e5e257cad3387a6f5e99ea57fd69802ec11c2c2f1612a445db22596022",
        "expert-wpb_seed3.mcpf":
            "dd3173845f8338fe40d27cedc8fd763bc15ee21f92e521f5a429445d10f09c72",
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
            "c0c3424a20ffad7597c2e9222d3dab18dd2fc674f743a799a02285f1470a20a1",
        "router_seed3.mcpf":
            "99729f04169951609aa19b370b04f2fad9be38df471f43e1feec626690502d59",
    },
    "relu": {
        "concat_seed3.mcpf":
            "25e05c4c5d9fa869f53b7260fadc984829667e897b15f7e09b66b800e4084f28",
        "expert-tac_seed3.mcpf":
            "c2448e0c3934e4234fc2a0eedf13874e0e2b6c68828424d80b6993b7f58de164",
        "expert-vis_seed3.mcpf":
            "8204ab8c67e357556bc0feb470dfd3e081d4f7d64e41f821c29f289699f67125",
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
            "8a7821244c4b933144afd95cf9691ca2e1ad9f2d78c2560c5e46c93cd67babc1",
        "router_seed3.mcpf":
            "8e49f25c0510b81dfb9bb2c7f630f841399ccb81b8028711aeeb75a685470abb",
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


@pytest.mark.parametrize("name", sorted(PINNED))
def test_training_outputs_are_pinned(tmp_path, name):
    cfg = pin_config(name, tmp_path)
    data = pl.gen_data(cfg)
    pl.run_training(cfg)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(tmp_path.iterdir()) if p != data}
    assert got == PINNED[name]
