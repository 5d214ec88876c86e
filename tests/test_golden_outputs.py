"""SHA-256 pins of the evaluation outputs that criterion 10 does not cover:
`signalshift eval --trace` (eval.csv, vehicles.csv and stdout) for a DQN
checkpoint and for each baseline policy on every test scenario, and
`signalshift ablate` (ablation.csv and stdout).

The inputs are criterion 10's: its two synthetic bases, generator seed 9
and its short-horizon config.  A change that moves a digest must re-pin it
and say why in CHANGES.md; `python3 tests/test_golden_outputs.py` prints
the table for the code under PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import signalshift as ss
from signalshift.cli import main as cli_main

from conftest import synthetic_base_list

GOLDEN = Path(__file__).parent / "golden" / "eval_ablate_sha256.json"
CONFIG = "horizon=300.0\ndrain=120.0\nepisodes=2\nmeta_iterations=2\ntask_batch=2\n"
POLICIES = ("fixed_time", "max_pressure", "random")


def output_digests(root: Path) -> dict[str, str]:
    """Run the pipeline under `root`; SHA-256 of every eval and ablate
    output, stdout included, keyed by its path below `root/out`."""
    bases = root / "bases.csv"
    ss.write_bases_csv(synthetic_base_list()[:2], bases)
    config = root / "config.txt"
    config.write_text(CONFIG)
    out = root / "out"
    digests = {}

    def run(name, *argv):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli_main([*argv, "--config", str(config), "--seed", "9",
                             "--out", str(out / name)])
        assert code == 0, (name, code)
        digests[f"{name}/stdout"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()

    gen, dqn, meta = root / "gen", root / "dqn", root / "meta"
    for stage_args, stage_out in ((["gen", "--bases", str(bases)], gen),
                                  (["train-dqn", "--scenarios", str(gen / "train")], dqn),
                                  (["train-meta", "--scenarios", str(gen / "train")], meta)):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main([*stage_args, "--config", str(config), "--seed", "9",
                             "--out", str(stage_out)]) == 0
    for scenario in sorted((gen / "test").glob("*.csv")):
        run(f"eval/{scenario.stem}/checkpoint", "eval", "--scenario", str(scenario),
            "--checkpoint", str(dqn / "dqn_checkpoint.txt"), "--trace")
        for policy in POLICIES:
            run(f"eval/{scenario.stem}/{policy}", "eval", "--scenario", str(scenario),
                "--policy", policy, "--trace")
    run("ablate", "ablate", "--checkpoint", str(meta / "meta_checkpoint.txt"),
        "--scenarios", str(gen / "test"), "--ks", "1,3,5")
    for path in sorted(out.rglob("*")):
        if path.is_file():
            digests[path.relative_to(out).as_posix()] = \
                hashlib.sha256(path.read_bytes()).hexdigest()
    return dict(sorted(digests.items()))


def test_eval_trace_and_ablation_outputs_match_their_pins(tmp_path):
    assert output_digests(tmp_path) == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        json.dump(output_digests(Path(tmp)), sys.stdout, indent=1)
        print()
