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
score_hidden = 16
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
        "9500f30aa2a575273d9774b8a3108135213b9245cd2826af85a81021d7ef221d",
    "eval_hard.csv":
        "fbe6915fe0c5351ab202354768b3ab924f5be55e06d8619f5c86be8066b2d858",
    "eval_router.csv":
        "7e8985fb39d0ca5a16c16ffce3f3468f9370d0cfe994c48e7633bfbbc73bbffb",
    "hard.txt":
        "480a79b7da288e8395ee88736d2960f1fd84756c960629265d36235bbdb584a8",
    "robust_expert.csv":
        "533b0ea45a1d2b182d991f72c797ff1365ffe01dcc006d489b43154d0a377303",
    "robust_router.csv":
        "97b90e89e62051ebba1a8510dc96886360ca17bc3b50e2672a1470c07de8603d",
    "router.txt":
        "a874d070878d24daefa893cea4b765c446f63c5c5f2fe7ad279b9e514d85f1a2",
    "sweep/sweep_metrics_seed3.csv":
        "a04a3460869924f1dd36da86bbb7ff81ef11a17f16a821a08d67bd45381774bb",
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
