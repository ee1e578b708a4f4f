"""Training pins: the sha256 of every checkpoint and loss CSV that
``run_training`` writes on a tiny dataset.

The hashes were recorded with one graph forward per sub-policy; training on
the stacked sub-policies must reproduce them bit for bit. They cover the
default method set, joint router fine-tuning, and relu hidden layers in the
experts and the fusion baselines. The ``phase_sub3`` set, three averaged
sub-policies on phase_reach, was recorded later with stacked training, when
it replaced the set of the retired band-split option, so that phase_reach and
an n_sub other than the default stay pinned.
"""

import hashlib

import pytest

from modalcompose import pipeline as pl
from modalcompose.runconfig import RunConfig

PINNED = {
    "default": {
        "concat_seed3.mcpf":
            "9554309f14ef5cfb4cf2263a62b33dbb1bef2f0f768a8fe661408643e74b79df",
        "expert-tac_seed3.mcpf":
            "dae5b08dbf565293894ee7423201f9b0e86903b95ff04b13037d4ab4d367e993",
        "expert-vis_seed3.mcpf":
            "322bea0f40391056f22faba932ae46c057fe1c1a087b5e8cf80d89ea70287808",
        "loss_concat_seed3.csv":
            "b4cc692b659c3f15dd84ffbbb6757e06289fbb995cb3abeba3ef9873b8c7915e",
        "loss_expert-tac_seed3.csv":
            "86c2bebb07aa4d86d677b4692e793cc6fd6bcd83cef64ac46172c0ad7adadc7b",
        "loss_expert-vis_seed3.csv":
            "b08f67d92d28ced737afc7a2ab8f31790772664823f7e49ccae7fe9e02df78ff",
        "loss_moe_seed3.csv":
            "446943b3c041ae2eb57976d8f9167f191340b0bde05ae833c77facb3a593f9c4",
        "loss_router_seed3.csv":
            "aea6e1db2f7b6d45cdeffd2519bc5a0e7fb25bcef0a85ea348096507c8dff8eb",
        "moe_seed3.mcpf":
            "9a8ae6a73dffe42ac78a4865ec57de203dcb6a81517d5a8cb2f53a23dd799f3e",
        "router_seed3.mcpf":
            "b299d8b8724fe95a64391238c28ee46a332c252d71ab00547e9a7cef252c6e4e",
    },
    "joint": {
        "concat_seed3.mcpf":
            "2cca61c38e30af62133f9eef27e0669ac8b93b5c19f6a5ea4f778bdb00bfcbfd",
        "expert-tac_seed3.mcpf":
            "e894c79793b9ba733329ee090b2beb9eadb06102d1094674192458feb616fc28",
        "expert-vis_seed3.mcpf":
            "6c637620a79e13b842b151014d183a6fb3eae2137262fad65ed1b6547c1260f4",
        "loss_concat_seed3.csv":
            "b4cc692b659c3f15dd84ffbbb6757e06289fbb995cb3abeba3ef9873b8c7915e",
        "loss_expert-tac_seed3.csv":
            "86c2bebb07aa4d86d677b4692e793cc6fd6bcd83cef64ac46172c0ad7adadc7b",
        "loss_expert-vis_seed3.csv":
            "b08f67d92d28ced737afc7a2ab8f31790772664823f7e49ccae7fe9e02df78ff",
        "loss_moe_seed3.csv":
            "446943b3c041ae2eb57976d8f9167f191340b0bde05ae833c77facb3a593f9c4",
        "loss_router_seed3.csv":
            "f2acb48d303e26f1686b25ec8263f98362d57004fb377ea7a058df20def17ae6",
        "moe_seed3.mcpf":
            "ce92e667bb88c4683f882cf53f2277b02eb4ee216fb05ec763196d5a3b9be637",
        "router_seed3.mcpf":
            "5df52d0536221a1342e1f04a5ceb32219ae662038a9dee0edf97d5daf5984d1d",
    },
    "phase_sub3": {
        "concat_seed3.mcpf":
            "d4e713acc07055e6d4d2ec3fee2e39f0742baa0e22924fe2a83ecf37be4a5ee7",
        "expert-wpa_seed3.mcpf":
            "360ad07a262e4c609028ae718719a8b72dec45eadb426292b688340b3441740c",
        "expert-wpb_seed3.mcpf":
            "129530cb35f3f30b835ec9fa9327a64dfe5e0099a1d92d452b7e2ec0bcff193f",
        "loss_concat_seed3.csv":
            "ac465df4788b5d46dfbff35413f75ad916931fb1e48f11543c712df333660d9e",
        "loss_expert-wpa_seed3.csv":
            "06b73e55e16b6a73e48289bc13d509254b783fdfcb54498f119d6613054f3fe0",
        "loss_expert-wpb_seed3.csv":
            "b0414d85782d46bd1269d8d8fefc4264e1002cf86d918e11f81f0422873f8a63",
        "loss_moe_seed3.csv":
            "d706a8458c00e992344ee4c9de582ac23d314ac0a031e7d4b132a1fb10359f5d",
        "loss_router_seed3.csv":
            "785cd7472d8aab61f6863d6c58a9e164ca3b102f89114064f8e0d31ea1674d01",
        "moe_seed3.mcpf":
            "6def85df3c0790d451c701fde6c76879559d7761cc686aefbf6283983f21c1d4",
        "router_seed3.mcpf":
            "5d48d44ef58566f472af096551e3379172daffe5a995a0af00a12aeb6d4ac292",
    },
    "relu": {
        "concat_seed3.mcpf":
            "f0c7cbe8bc30e82de888c8c3306c823c73b62d7ae7a1b79335f037bfb3a4a8bd",
        "expert-tac_seed3.mcpf":
            "3b7a3a03ffd855632ec344c9ffe3aac2d9b80198cd9abc5b98caf14449cd53c5",
        "expert-vis_seed3.mcpf":
            "91a51172dce465fd3565de2757f26d3c9f5adca3316564d664410bb4e179320c",
        "loss_concat_seed3.csv":
            "276b15d5fc1b46ba0d14d9542e992da70b00ab8e4e31f9539000b7bd2a2592c1",
        "loss_expert-tac_seed3.csv":
            "cf78fc92e6e815b362fa5af35f3dead3297bdd9373dbb5d31918ce8feb82d3d9",
        "loss_expert-vis_seed3.csv":
            "23e73c683d8e6f71d6fb2ccf1ac23cf6268661bbd95471edd3bb4fb07e5ccad5",
        "loss_moe_seed3.csv":
            "ab7bd0d985bbe44d7313293c7655d21ad1a3dfbb7e7d082b738a0fe6256c3a5e",
        "loss_router_seed3.csv":
            "3f8c79221160cdaf8a611660995ba480c7891d3b12928e221492c770ed764f38",
        "moe_seed3.mcpf":
            "5377c2aa0f71ce471fe93915779c3850540f54e32cef27fa20bd5220df29d1d0",
        "router_seed3.mcpf":
            "97297640c7307badd824010f62c3e97c872e30874c91bc1745aa91eb655c2453",
    },
}


def pin_config(name, out):
    cfg = RunConfig().with_section("train", steps=30, router_steps=15)
    if name == "joint":
        cfg = cfg.with_section("router", joint=True)
    elif name == "phase_sub3":
        cfg = cfg.with_section("env", name="phase_reach")
        cfg = cfg.with_section("expert", n_sub=3)
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
