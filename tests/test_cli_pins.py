"""CLI pins: the sha256 of the manifests and metrics CSVs that a short
``modalcompose`` session writes on a tiny config.

The session trains every method, composes the experts under their router
and under fixed weights 1,3 with the hard strategy, evaluates and runs a
freeze-at-entry corruption on a manifest and on an expert checkpoint, and
sweeps two dataset sizes. Loading checkpoints into composed policies may be
restructured; these files must keep their bytes.
"""

import hashlib

from modalcompose.cli import cli_dispatch

CONFIG = """\
[expert]
enc_hidden = 8
enc_out = 4
sub_hidden = 16
[router]
hidden = 8
[train]
steps = 300
batch = 8
router_steps = 100
[run]
demos = 6
eval_n = 3
seed = 3
out = {out}
"""

PINNED = {
    "eval_expert.csv":
        "348cc8dfd85419d90e60022a5dc2afc797c6a661cc443f5d52bd7221ac9ee534",
    "eval_hard.csv":
        "8b37e93b9fadb70a3b249cd9389b9b5e1647293d691c1b0d85b93ba488eaeff7",
    "eval_router.csv":
        "82404a5bac40f19d15f605bcafde4bf7aa32d9bce2da7deddf4dbe84997d13e4",
    "hard.txt":
        "480a79b7da288e8395ee88736d2960f1fd84756c960629265d36235bbdb584a8",
    "robust_expert.csv":
        "736e0c945c6c75b11ec41701182718544a68da426019a1ff608a645176f2dd20",
    "robust_router.csv":
        "820ee2a55236ade2c237ebb9194571804a68b559d72be45f85e7f2861344185d",
    "router.txt":
        "a874d070878d24daefa893cea4b765c446f63c5c5f2fe7ad279b9e514d85f1a2",
    "sweep/sweep_metrics_seed3.csv":
        "c64e6faef05f3c700e1f2c51a577d3b5b85538c8ad46db5737ea4118bbe7bf54",
}


def test_cli_session_outputs_are_pinned(tmp_path):
    run = tmp_path / "run"
    conf = tmp_path / "run.cfg"
    conf.write_text(CONFIG.format(out=run))

    def cli(*args):   # compose takes no --config
        return cli_dispatch([*args] + ([] if args[0] == "compose" else ["--config", str(conf)]))

    assert cli("gen-data") == 0
    assert cli("train") == 0
    experts = f"{run / 'expert-vis_seed3.mcpf'},{run / 'expert-tac_seed3.mcpf'}"
    assert cli("compose", "--experts", experts, "--router", str(run / "router_seed3.mcpf"),
               "--out", str(tmp_path / "router.txt")) == 0
    assert cli("compose", "--experts", experts, "--weights", "1,3", "--strategy", "hard",
               "--out", str(tmp_path / "hard.txt")) == 0
    targets = {"router": tmp_path / "router.txt", "hard": tmp_path / "hard.txt",
               "expert": run / "expert-vis_seed3.mcpf"}
    for name, target in targets.items():
        assert cli("eval", "--manifest", str(target),
                   "--out", str(tmp_path / f"eval_{name}.csv")) == 0
    for name in ("router", "expert"):
        assert cli("robust", "--manifest", str(targets[name]), "--n", "3",
                   "--scenario", "corrupt:freeze:vis@entry",
                   "--out", str(tmp_path / f"robust_{name}.csv")) == 0
    assert cli("sweep", "--n", "3,5", "--out", str(tmp_path / "sweep")) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in PINNED}
    assert got == PINNED
