import argparse
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import signalshift as ss
from signalshift import harness
from signalshift.cli import build_parser, main

from conftest import synthetic_base_list


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def bases_file(tmp_path):
    path = tmp_path / "bases.csv"
    ss.write_bases_csv(synthetic_base_list(), path)
    return path


def volumes_file(tmp_path, name, volumes):
    path = tmp_path / name
    ss.write_bases_csv([ss.BaseDistribution(np.array(volumes), name)], path)
    return path


def small_config(tmp_path, **extra):
    overrides = dict(horizon=300.0, drain=120.0, episodes=2, meta_iterations=2,
                     task_batch=2)
    overrides.update(extra)
    path = tmp_path / "config.txt"
    path.write_text("".join(f"{k}={v}\n" for k, v in overrides.items()))
    return path


def tree_bytes(root):
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


# ---------------------------------------------------------------------------
# kl

def test_kl_identity_prints_zero(tmp_path, capsys):
    f = volumes_file(tmp_path, "p.csv", [50, 50])
    code, out, _ = run_cli(capsys, "kl", "--a", str(f), "--b", str(f))
    assert code == 0
    assert out.strip() == "0.000000"


def test_kl_hand_pair(tmp_path, capsys):
    a = volumes_file(tmp_path, "p.csv", [50, 50])
    b = volumes_file(tmp_path, "q.csv", [25, 75])
    code, out, _ = run_cli(capsys, "kl", "--a", str(a), "--b", str(b))
    assert code == 0
    assert out.strip() == "0.143841"


def test_kl_accepts_flow_files(tmp_path, capsys):
    flow = ss.sample_arrivals([10, 20, 5, 5, 10, 20, 5, 5], 300.0, 3)
    path = tmp_path / "flow.csv"
    ss.write_flow_csv(flow, path)
    code, out, _ = run_cli(capsys, "kl", "--a", str(path), "--b", str(path))
    assert code == 0 and out.strip() == "0.000000"


def test_kl_missing_file_exit_2(tmp_path, capsys):
    f = volumes_file(tmp_path, "p.csv", [50, 50])
    code, _, err = run_cli(capsys, "kl", "--a", str(f), "--b", str(tmp_path / "nope.csv"))
    assert code == 2
    assert err.startswith("ERROR[missing-file]:")


def test_kl_multi_row_bases_exit_3(tmp_path, capsys):
    f = bases_file(tmp_path)  # five rows: ambiguous as a distribution
    one = volumes_file(tmp_path, "one.csv", [1, 1])
    code, _, err = run_cli(capsys, "kl", "--a", str(f), "--b", str(one))
    assert code == 3
    assert err.startswith("ERROR[validation]:")


def headerless_flow(tmp_path, sidecar: bool):
    """A flow CSV of two vehicles without its header line, and with or
    without its `.meta` sidecar."""
    flow = ss.FlowSpec([(10.0, 0), (20.0, 1)], label="flow")
    path = tmp_path / "flow.csv"
    ss.write_flow_csv(flow, path)
    path.write_text("10.0,1\n20.0,2\n")
    if not sidecar:
        path.with_suffix(".meta").unlink()
    return flow, path


def test_kl_reads_a_headerless_flow_with_its_sidecar_as_a_flow(tmp_path, capsys):
    # it was once read as a bases file of two bases, one per vehicle
    flow, path = headerless_flow(tmp_path, sidecar=True)
    ref = volumes_file(tmp_path, "ref.csv", [1, 2, 3, 4, 5, 6, 7, 8])
    code, out, err = run_cli(capsys, "kl", "--a", str(ref), "--b", str(path))
    assert code == 0, err
    want = ss.kl_distance(ss.movement_distribution([1, 2, 3, 4, 5, 6, 7, 8]),
                          ss.movement_distribution(flow.movement_counts()))
    assert out.strip() == f"{want:.6f}"


def test_kl_names_the_bases_format_a_file_without_header_or_sidecar_was_read_as(
        tmp_path, capsys):
    _, path = headerless_flow(tmp_path, sidecar=False)
    code, _, err = run_cli(capsys, "kl", "--a", str(path), "--b", str(path))
    assert code == 3
    assert err.startswith(f"ERROR[validation]: {path} holds 2 distributions; expected "
                          "exactly 1 (read as a bases file: it has neither the flow header "
                          "arrival_s,movement nor a .meta sidecar)")


# ---------------------------------------------------------------------------
# gen / ingest

def test_gen_writes_both_sets(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "gen", "--bases", str(bases_file(tmp_path)),
                           "--seed", "3", "--out", str(tmp_path / "out"))
    assert code == 0
    train = sorted((tmp_path / "out" / "train").glob("*.csv"))
    test = sorted((tmp_path / "out" / "test").glob("*.csv"))
    assert len(train) == 25 and len(test) == 5


def test_gen_deterministic_trees(tmp_path, capsys):
    bases = bases_file(tmp_path)
    for name in ("a", "b"):
        code, _, _ = run_cli(capsys, "gen", "--bases", str(bases), "--seed", "42",
                             "--out", str(tmp_path / name))
        assert code == 0
    assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")


def test_gen_refuses_a_bases_label_no_file_can_hold_before_writing(tmp_path, capsys):
    # `peak ,…` was once read as the label 'peak ': gen made out/train, then
    # stopped at the first flow sidecar without naming the bases file
    bases = tmp_path / "bases.csv"
    bases.write_text("# schema=1\nlabel,mov_1,mov_2\npeak ,100,200\n")
    code, _, err = run_cli(capsys, "gen", "--bases", str(bases), "--out", str(tmp_path / "out"))
    assert code == 3
    assert err.startswith(f"ERROR[validation]: {bases}:3: label 'peak ' cannot go into a file")
    assert not (tmp_path / "out").exists()


def test_a_negative_seed_is_named_where_it_is_refused(tmp_path, capsys):
    # numpy's own refusal ("expected non-negative integer") named no seed
    with pytest.raises(ValueError, match=r"^seed -1 is negative"):
        ss.spawn_rng(-1, 3)
    code, _, err = run_cli(capsys, "gen", "--bases", str(bases_file(tmp_path)),
                           "--seed", "-1", "--out", str(tmp_path / "out"))
    assert code == 3 and err.startswith("ERROR[validation]: seed -1 is negative")


def test_ingest_prints_volumes(tmp_path, capsys):
    counts = tmp_path / "counts.csv"
    counts.write_text("# schema=1\ntimestamp_iso8601,movement,count\n"
                      "2024-05-07T08:00:00,3,7\n")
    code, out, _ = run_cli(capsys, "ingest", "--counts", str(counts),
                           "--start", "08:00", "--end", "08:05",
                           "--out", str(tmp_path / "out"))
    assert code == 0
    assert out.splitlines()[0] == "0,0,7,0,0,0,0,0"
    assert (tmp_path / "out" / "ingested_bases.csv").exists()


def test_ingest_label_names_the_base(tmp_path, capsys):
    counts = tmp_path / "counts.csv"
    counts.write_text("# schema=1\n2024-05-07T08:00:00,3,7\n")
    code, _, _ = run_cli(capsys, "ingest", "--counts", str(counts), "--start", "08:00",
                         "--end", "08:05", "--label", "X", "--out", str(tmp_path / "out"))
    assert code == 0
    [base] = ss.read_bases_csv(tmp_path / "out" / "ingested_bases.csv")
    assert base.label == "X" and base.volumes.tolist() == [0, 0, 7, 0, 0, 0, 0, 0]


def test_ingest_empty_window_exit_3(tmp_path, capsys):
    counts = tmp_path / "counts.csv"
    counts.write_text("# schema=1\n2024-05-07T08:00:00,3,7\n")
    code, _, err = run_cli(capsys, "ingest", "--counts", str(counts),
                           "--start", "11:00", "--end", "11:05",
                           "--out", str(tmp_path / "out"))
    assert code == 3 and err.startswith("ERROR[validation]:")


# ---------------------------------------------------------------------------
# training / eval / ablate round trip

@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli")
    capsys = None
    bases = tmp_path / "bases.csv"
    ss.write_bases_csv(synthetic_base_list()[:2], bases)
    config = small_config(tmp_path)
    assert main(["gen", "--bases", str(bases), "--seed", "1", "--config",
                 str(config), "--out", str(tmp_path / "sets")]) == 0
    return tmp_path, config


def test_train_eval_adapt_ablate_cycle(cli_workspace, capsys):
    tmp_path, config = cli_workspace
    sets = tmp_path / "sets"
    scenario = sorted((sets / "test").glob("*.csv"))[0]

    code, _, _ = run_cli(capsys, "train-dqn", "--scenarios", str(sets / "train"),
                         "--seed", "2", "--config", str(config),
                         "--out", str(tmp_path / "dqn"))
    assert code == 0
    ckpt = tmp_path / "dqn" / "dqn_checkpoint.txt"
    assert ckpt.exists() and (tmp_path / "dqn" / "dqn_training_log.csv").exists()

    code, out, _ = run_cli(capsys, "eval", "--scenario", str(scenario),
                           "--checkpoint", str(ckpt), "--config", str(config),
                           "--out", str(tmp_path / "eval"), "--trace")
    assert code == 0
    assert (tmp_path / "eval" / "eval.csv").exists()
    assert (tmp_path / "eval" / "vehicles.csv").exists()

    code, _, _ = run_cli(capsys, "train-meta", "--scenarios", str(sets / "train"),
                         "--seed", "2", "--config", str(config),
                         "--out", str(tmp_path / "meta"))
    assert code == 0
    meta_ckpt = tmp_path / "meta" / "meta_checkpoint.txt"

    code, _, _ = run_cli(capsys, "adapt", "--checkpoint", str(meta_ckpt),
                         "--scenario", str(scenario), "--config", str(config),
                         "--out", str(tmp_path / "adapted"))
    assert code == 0
    assert (tmp_path / "adapted" / "adapted_checkpoint.txt").exists()

    code, out, _ = run_cli(capsys, "ablate", "--checkpoint", str(meta_ckpt),
                           "--scenarios", str(sets / "test"), "--ks", "1,2",
                           "--config", str(config), "--out", str(tmp_path / "abl"))
    assert code == 0
    lines = (tmp_path / "abl" / "ablation.csv").read_text().splitlines()
    assert len(lines) == 4  # schema, header, two rows


def test_eval_policy_baseline(cli_workspace, capsys):
    tmp_path, config = cli_workspace
    scenario = sorted((tmp_path / "sets" / "test").glob("*.csv"))[0]
    code, out, _ = run_cli(capsys, "eval", "--scenario", str(scenario),
                           "--policy", "max_pressure", "--config", str(config),
                           "--out", str(tmp_path / "evalmp"))
    assert code == 0
    assert float(out.strip()) > 0


def test_eval_policy_choices_are_the_baselines():
    parser = build_parser()
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    [policy] = [a for a in commands.choices["eval"]._actions if a.dest == "policy"]
    assert policy.choices == tuple(harness.BASELINES) == \
        ("fixed_time", "max_pressure", "random")


def test_report_runs_manifest(cli_workspace, capsys):
    tmp_path, config = cli_workspace
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(
        f"train_dir={tmp_path / 'sets' / 'train'}\n"
        f"test_dir={tmp_path / 'sets' / 'test'}\n"
        f"out={tmp_path / 'report'}\n"
        f"config={config}\n"
        "algorithms=fixed_time,max_pressure,random\n"
        "seeds=0\n")
    code, _, _ = run_cli(capsys, "report", "--manifest", str(manifest))
    assert code == 0
    assert (tmp_path / "report" / "report_pivot.csv").exists()


def run_report(capsys, tmp_path, workspace, test_dir, config, algorithms="fixed_time"):
    """`report` on the workspace's training set and `test_dir`; returns the
    exit code, stderr and the output directory."""
    out = tmp_path / "report"
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"train_dir={workspace / 'sets' / 'train'}\ntest_dir={test_dir}\n"
                        f"out={out}\nconfig={config}\nalgorithms={algorithms}\nseeds=0\n")
    code, _, err = run_cli(capsys, "report", "--manifest", str(manifest))
    return code, err, out


def test_report_config_with_a_nan_kl_epsilon_exit_3(cli_workspace, tmp_path, capsys):
    workspace, _ = cli_workspace
    code, err, out = run_report(capsys, tmp_path, workspace, workspace / "sets" / "test",
                                small_config(tmp_path, kl_epsilon="nan"))
    assert code == 3
    assert err.startswith("ERROR[validation]: [setup] kl_epsilon must be finite")
    assert "stage=setup" in (out / "status.txt").read_text()


@pytest.mark.parametrize("key", ["embed_dim", "compete_dim"])
def test_report_config_with_a_zero_network_dim_stops_at_setup(cli_workspace, tmp_path,
                                                             capsys, key):
    # once refused only at train-dqn, and a report without a learned tag passed
    workspace, _ = cli_workspace
    code, err, out = run_report(capsys, tmp_path, workspace, workspace / "sets" / "test",
                                small_config(tmp_path, **{key: 0}), algorithms="random")
    assert code == 3
    assert err == f"ERROR[validation]: [setup] {key} must be positive\n"
    assert sorted(p.name for p in out.iterdir()) == ["status.txt"]
    assert (out / "status.txt").read_text() == "status=failed\nstage=setup\n"


def test_report_vehicle_less_test_flow_exit_3(cli_workspace, tmp_path, capsys):
    workspace, config = cli_workspace
    test_dir = tmp_path / "test"
    test_dir.mkdir()
    ss.write_flow_csv(ss.sample_arrivals([10] * 8, 300.0, 3, label="busy"), test_dir / "a.csv")
    ss.write_flow_csv(ss.FlowSpec([], horizon=300.0, label="idle"), test_dir / "b.csv")
    code, err, out = run_report(capsys, tmp_path, workspace, test_dir, config)
    assert code == 3
    assert err.startswith("ERROR[validation]: [setup] scenarios without vehicles: idle")
    assert "stage=setup" in (out / "status.txt").read_text()


def test_ablate_vehicle_less_test_flow_exit_3(tmp_path, capsys):
    ckpt = tmp_path / "meta.txt"
    ss.save_meta_checkpoint(ss.MetaCheckpoint(ss.init_params((16, 16), seed=1),
                                              ss.MetaHyper(), "digest"), ckpt)
    test_dir = tmp_path / "test"
    test_dir.mkdir()
    ss.write_flow_csv(ss.sample_arrivals([10] * 8, 300.0, 3, label="busy"), test_dir / "a.csv")
    ss.write_flow_csv(ss.FlowSpec([], horizon=300.0, label="idle"), test_dir / "b.csv")
    code, _, err = run_cli(capsys, "ablate", "--checkpoint", str(ckpt), "--scenarios",
                           str(test_dir), "--ks", "1,2", "--out", str(tmp_path / "abl"))
    assert code == 3
    assert err.startswith("ERROR[validation]: scenarios without vehicles: idle")
    assert not (tmp_path / "abl").exists()


def test_eval_vehicle_less_flow_exit_3(tmp_path, capsys):
    scenario = tmp_path / "flow.csv"
    ss.write_flow_csv(ss.FlowSpec([], horizon=300.0, label="idle"), scenario)
    code, _, err = run_cli(capsys, "eval", "--scenario", str(scenario), "--policy",
                           "fixed_time", "--out", str(tmp_path / "eval"))
    assert code == 3
    assert err.startswith("ERROR[validation]: scenarios without vehicles: idle")
    assert not (tmp_path / "eval").exists()


def test_report_test_dir_without_flows_exit_2(cli_workspace, tmp_path, capsys):
    workspace, config = cli_workspace
    test_dir = tmp_path / "test"
    test_dir.mkdir()
    code, err, out = run_report(capsys, tmp_path, workspace, test_dir, config)
    assert code == 2
    assert err.startswith("ERROR[missing-file]: [setup] no flow CSVs found")
    assert "stage=setup" in (out / "status.txt").read_text()


def test_report_diverging_training_exit_4(cli_workspace, tmp_path, capsys):
    workspace, _ = cli_workspace
    config = small_config(tmp_path, lr=1e6, grad_clip=0)
    with np.errstate(all="ignore"):
        code, err, out = run_report(capsys, tmp_path, workspace, workspace / "sets" / "test",
                                    config, algorithms="rl_no_adapt")
    assert code == 4
    assert err.startswith("ERROR[internal]: ExperimentError: [train-dqn]")
    assert "stage=train-dqn" in (out / "status.txt").read_text()


def test_eval_truncated_checkpoint_exit_3(tmp_path, capsys):
    lines = ss.network.params_to_text(ss.init_params((16, 16), seed=1)).splitlines()
    ckpt = tmp_path / "ckpt.txt"
    ckpt.write_text("\n".join(lines[:-1]) + "\n")  # ends after `tensor b_r`
    scenario = tmp_path / "flow.csv"
    ss.write_flow_csv(ss.sample_arrivals([10] * 8, 300.0, 3), scenario)
    code, _, err = run_cli(capsys, "eval", "--scenario", str(scenario), "--checkpoint",
                           str(ckpt), "--out", str(tmp_path / "eval"))
    assert code == 3
    assert err.startswith("ERROR[validation]: tensor b_r")


def test_eval_config_with_a_nan_lost_time_exit_3(tmp_path, capsys):
    scenario = tmp_path / "flow.csv"
    ss.write_flow_csv(ss.sample_arrivals([10] * 8, 300.0, 3), scenario)
    config = small_config(tmp_path, lost_time="nan")
    code, _, err = run_cli(capsys, "eval", "--scenario", str(scenario), "--policy",
                           "fixed_time", "--config", str(config),
                           "--out", str(tmp_path / "eval"))
    assert code == 3
    assert err.startswith("ERROR[validation]: lost_time must be finite")
    assert not (tmp_path / "eval").exists()


def test_train_config_with_a_nan_kl_epsilon_exit_3(cli_workspace, tmp_path, capsys):
    # the setting is rejected where the settings load, before a training
    # that does not read it
    workspace, _ = cli_workspace
    config = small_config(tmp_path, kl_epsilon="nan")
    code, _, err = run_cli(capsys, "train-dqn", "--scenarios", str(workspace / "sets" / "train"),
                           "--config", str(config), "--out", str(tmp_path / "nan-kl"))
    assert code == 3
    assert err.startswith("ERROR[validation]: kl_epsilon must be finite")
    assert not (tmp_path / "nan-kl").exists()


def test_eval_checkpoint_with_a_stray_key_exit_3(tmp_path, capsys):
    lines = ss.network.params_to_text(ss.init_params((16, 16), seed=1)).splitlines()
    lines.insert(3, "seed=3")
    ckpt = tmp_path / "ckpt.txt"
    ckpt.write_text("\n".join(lines) + "\n")
    scenario = tmp_path / "flow.csv"
    ss.write_flow_csv(ss.sample_arrivals([10] * 8, 300.0, 3), scenario)
    code, _, err = run_cli(capsys, "eval", "--scenario", str(scenario), "--checkpoint",
                           str(ckpt), "--out", str(tmp_path / "eval"))
    assert code == 3
    assert err.startswith("ERROR[validation]: ") and "ckpt.txt:4: unknown key 'seed'" in err


def test_adapt_meta_checkpoint_without_alpha_exit_3(tmp_path, capsys):
    ckpt = tmp_path / "meta.txt"
    ss.save_meta_checkpoint(ss.MetaCheckpoint(ss.init_params((16, 16), seed=1),
                                              ss.MetaHyper(), "digest"), ckpt)
    lines = [line for line in ckpt.read_text().splitlines() if not line.startswith("alpha=")]
    ckpt.write_text("\n".join(lines) + "\n")
    scenario = tmp_path / "flow.csv"
    ss.write_flow_csv(ss.sample_arrivals([10] * 8, 300.0, 3), scenario)
    code, _, err = run_cli(capsys, "adapt", "--checkpoint", str(ckpt), "--scenario",
                           str(scenario), "--out", str(tmp_path / "adapted"))
    assert code == 3
    assert err.startswith("ERROR[validation]: ") and "without ['alpha']" in err
    assert not (tmp_path / "adapted").exists()


# ---------------------------------------------------------------------------
# parser behaviour

def test_eval_malformed_sidecar_exit_3(tmp_path, capsys):
    scenario = tmp_path / "flow.csv"
    ss.write_flow_csv(ss.sample_arrivals([10] * 8, 300.0, 3), scenario)
    sidecar = scenario.with_suffix(".meta")
    sidecar.write_text(sidecar.read_text() + "horizon 1800.0\n")
    code, _, err = run_cli(capsys, "eval", "--scenario", str(scenario), "--policy",
                           "fixed_time", "--out", str(tmp_path / "eval"))
    assert code == 3
    assert err.startswith("ERROR[validation]: ") and "flow.meta:5: expected key=value" in err


def test_eval_unknown_sidecar_key_exit_3(tmp_path, capsys):
    scenario = tmp_path / "flow.csv"
    ss.write_flow_csv(ss.sample_arrivals([10] * 8, 300.0, 3), scenario)
    sidecar = scenario.with_suffix(".meta")
    sidecar.write_text(sidecar.read_text() + "horizn=1800.0\n")
    code, _, err = run_cli(capsys, "eval", "--scenario", str(scenario), "--policy",
                           "fixed_time", "--out", str(tmp_path / "eval"))
    assert code == 3
    assert err.startswith("ERROR[validation]: ") and "flow.meta:5: unknown key 'horizn'" in err


def test_module_entry_point_exits_with_the_code(tmp_path):
    # `python -m signalshift.cli` hands main's exit code to the shell
    src = str(Path(ss.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    missing = str(tmp_path / "missing.csv")
    done = subprocess.run([sys.executable, "-m", "signalshift.cli", "kl", "--a", missing,
                           "--b", missing], capture_output=True, text=True, env=env,
                          cwd=tmp_path, timeout=120)
    assert done.returncode == 2
    assert done.stderr.startswith("ERROR[missing-file]: ") and "missing.csv" in done.stderr


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    assert "signalshift" in capsys.readouterr().out


def test_unknown_flag_exits_nonzero_with_usage(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["kl", "--bogus", "x"])
    assert exit_info.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["frobnicate"])
    assert exit_info.value.code == 2


def test_bad_config_key_exit_3(tmp_path, capsys):
    config = tmp_path / "config.txt"
    config.write_text("gamma=0.9\nnot_a_key=1\n")
    f = volumes_file(tmp_path, "p.csv", [50, 50])
    code, _, err = run_cli(capsys, "kl", "--a", str(f), "--b", str(f),
                           "--config", str(config))
    assert code == 3 and f"{config}:2: unknown key 'not_a_key'" in err


def test_ingest_label_no_bases_file_can_hold_exit_3(tmp_path, capsys):
    # `--label "east,peak"` once wrote a bases file that could not be read back
    counts = tmp_path / "counts.csv"
    counts.write_text("# schema=1\n2024-05-07T08:00:00,3,7\n")
    code, _, err = run_cli(capsys, "ingest", "--counts", str(counts), "--start", "08:00",
                           "--end", "08:05", "--label", "east,peak",
                           "--out", str(tmp_path / "out"))
    assert code == 3 and "ERROR[validation]: label 'east,peak' cannot go into a file" in err
    assert not (tmp_path / "out" / "ingested_bases.csv").exists()
