"""Command-line entry point; every subcommand is a thin shell over one
library operation.

Exit codes: 0 success, 2 missing input file, 3 validation failure,
4 internal error; a `report` stage failure takes the code of its cause.
Failures print one machine-parseable line to stderr:
`ERROR[<category>]: <message>`.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .config import config_key, load_settings
from .dqn import GreedyPolicy, LogRow, train_dqn
from .harness import BASELINES, ExperimentError, load_manifest, run_experiment
from .intersection import run_episode, write_vehicle_trace
from .meta import (
    AblationRow,
    MetaHyper,
    MetaLogRow,
    ablate_steps,
    adapt_to_scenario,
    load_meta_checkpoint,
    save_meta_checkpoint,
    train_metalight,
)
from .metrics import kl_distance, movement_distribution
from .network import load_params, save_params
from .scenarios import (
    FLOW_COLUMNS,
    has_header,
    ingest_counts_csv,
    load_scenario_dir,
    make_test_scenarios,
    make_training_set,
    read_bases_csv,
    read_flow_csv,
    require_vehicles,
    write_bases_csv,
    write_file,
    write_rows,
    write_scenario_set,
)


def _require(path) -> Path:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"{p} does not exist")
    return p


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _check_config(args, settings, params, hyper=None) -> None:
    """Refuse a `--config` that contradicts the checkpoint read with it: its
    network dims and, for a meta checkpoint, every `MetaHyper` key but the
    seed.  Without `--config` nothing is compared."""
    if not args.config:
        return
    pairs = {"embed_dim": (settings.dims[0], params.embed_dim),
             "compete_dim": (settings.dims[1], params.compete_dim)}
    if hyper is not None:
        pairs.update((config_key(f.name), (getattr(settings.meta, f.name), getattr(hyper, f.name)))
                     for f in fields(MetaHyper) if f.name != "seed")
    if differ := [f"{key} ({ours!r}, the checkpoint's {theirs!r})"
                  for key, (ours, theirs) in pairs.items() if ours != theirs]:
        raise ValueError(f"{args.config} contradicts the checkpoint: {'; '.join(differ)}")


def _distribution_from_file(path):
    """Movement distribution from a flow CSV, a file with the flow header or
    a `.meta` sidecar, or else from a bases CSV."""
    path = _require(path)
    if has_header(path, FLOW_COLUMNS[0]) or path.with_suffix(".meta").exists():
        return movement_distribution(read_flow_csv(path).movement_counts())
    bases = read_bases_csv(path)
    if len(bases) != 1:
        raise ValueError(f"{path} holds {len(bases)} distributions; expected exactly 1 "
                         f"(read as a bases file: it has neither the flow header "
                         f"{','.join(FLOW_COLUMNS)} nor a .meta sidecar)")
    return movement_distribution(bases[0].volumes)


def cmd_gen(args) -> int:
    bases = read_bases_csv(_require(args.bases))
    settings = load_settings(args.config, args.seed)
    horizon = settings.intersection.horizon
    # every set is made, and so checked, before anything is written
    sets = []
    if args.kind in ("train", "both"):
        sets.append(("train", make_training_set(bases, args.seed, horizon)))
    if args.kind in ("test", "both"):
        sets.append(("test", make_test_scenarios(bases, args.seed, horizon)))
    out = Path(args.out)
    for name, scenario_set in sets:
        write_scenario_set(scenario_set, out / name)
    print(f"scenario sets written under {out}")
    return 0


def cmd_ingest(args) -> int:
    n_movements = load_settings(args.config).intersection.n_movements
    base = ingest_counts_csv(_require(args.counts), args.start, args.end,
                             n_movements=n_movements)
    if args.label:
        base.label = args.label
    target = Path(args.out) / "ingested_bases.csv"
    write_bases_csv([base], target)
    print(",".join(str(int(v)) for v in base.volumes))
    print(f"base distribution written to {target}")
    return 0


def cmd_kl(args) -> int:
    d = kl_distance(_distribution_from_file(args.a), _distribution_from_file(args.b),
                    epsilon=load_settings(args.config).kl_epsilon)
    print(f"{d:.6f}")
    return 0


def cmd_train_dqn(args) -> int:
    settings = load_settings(args.config, args.seed)
    scenarios = load_scenario_dir(_require(args.scenarios), kind="training")
    result = train_dqn(settings.intersection, scenarios, settings.dqn,
                       dims=settings.dims)
    out = _out_dir(args)
    save_params(result.params, out / "dqn_checkpoint.txt")
    write_rows(out / "dqn_training_log.csv", LogRow, result.log)
    print(f"trained {result.updates} updates; checkpoint in {out}", file=sys.stderr)
    return 0


def cmd_train_meta(args) -> int:
    settings = load_settings(args.config, args.seed)
    scenarios = load_scenario_dir(_require(args.scenarios), kind="training")
    result = train_metalight(settings.intersection, scenarios, settings.meta,
                             dims=settings.dims)
    out = _out_dir(args)
    save_meta_checkpoint(result.checkpoint, out / "meta_checkpoint.txt")
    write_rows(out / "meta_training_log.csv", MetaLogRow, result.log)
    print(f"meta-trained {len(result.log)} iterations; checkpoint in {out}",
          file=sys.stderr)
    return 0


def cmd_adapt(args) -> int:
    settings = load_settings(args.config, args.seed)
    checkpoint = load_meta_checkpoint(_require(args.checkpoint))
    _check_config(args, settings, checkpoint.theta0, checkpoint.hyper)
    scenario = read_flow_csv(_require(args.scenario))
    result = adapt_to_scenario(checkpoint, scenario, settings.intersection, seed=args.seed)
    out = _out_dir(args)
    save_params(result.params, out / "adapted_checkpoint.txt")
    hyper = checkpoint.hyper
    print(f"adapted with {hyper.adapt_steps} steps on {hyper.adapt_data_budget} "
          f"episode(s) in {result.wall_time_s:.3f}s", file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    settings = load_settings(args.config, args.seed)
    config = settings.intersection
    scenario = read_flow_csv(_require(args.scenario))
    require_vehicles([scenario])
    if args.checkpoint:
        params = load_params(_require(args.checkpoint))
        _check_config(args, settings, params)
        policy = GreedyPolicy(params, config)
        tag = "checkpoint"
    else:
        policy = BASELINES[args.policy](config, args.seed)
        tag = args.policy
    result = run_episode(config, scenario, policy, seed=args.seed)
    out = _out_dir(args)
    write_file(out / "eval.csv",
               ["algorithm,scenario,seed,avg_travel_time_s,completed,residual",
                f"{tag},{scenario.label},{args.seed},"
                f"{result.avg_travel_time!r},{result.completed_count},{result.residual_count}"])
    if args.trace:
        write_vehicle_trace(result, out / "vehicles.csv")
    print(f"{result.avg_travel_time!r}")
    return 0


def cmd_ablate(args) -> int:
    settings = load_settings(args.config, args.seed)
    checkpoint = load_meta_checkpoint(_require(args.checkpoint))
    _check_config(args, settings, checkpoint.theta0, checkpoint.hyper)
    scenarios = load_scenario_dir(_require(args.scenarios))
    ks = [int(k) for k in args.ks.split(",") if k.strip()]
    rows = ablate_steps(checkpoint, scenarios, ks, settings.intersection,
                        seed=args.seed)
    out = _out_dir(args)
    write_rows(out / "ablation.csv", AblationRow, rows)
    for row in rows:
        print(f"k={row.k} avg_travel_time_s={row.avg_travel_time_s!r}")
    return 0


def cmd_report(args) -> int:
    manifest = load_manifest(_require(args.manifest))
    records = run_experiment(manifest)
    print(f"{len(records)} evaluations written under {manifest.out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="root 64-bit seed")
    common.add_argument("--config", default=None,
                        help="key=value file overriding hyperparameter defaults")
    common.add_argument("--out", default="out", help="output directory")

    parser = argparse.ArgumentParser(
        prog="signalshift",
        description="Traffic-signal RL workbench: scenarios, shift metrics, "
                    "DQN and meta-learned controllers, experiment reports.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common],
                       help="generate training/test scenario sets from base volumes")
    p.add_argument("--bases", required=True, help="bases CSV (label,mov_1..mov_N)")
    p.add_argument("--kind", choices=("train", "test", "both"), default="both")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("ingest", parents=[common],
                       help="sum a 5-minute counts CSV into a base distribution")
    p.add_argument("--counts", required=True)
    p.add_argument("--start", required=True, help="window start (ISO or HH:MM)")
    p.add_argument("--end", required=True, help="window end (ISO or HH:MM)")
    p.add_argument("--label", default=None)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("kl", parents=[common],
                       help="KL distance between two flow or volume files")
    p.add_argument("--a", required=True, help="reference (training) file")
    p.add_argument("--b", required=True, help="comparison (test) file")
    p.set_defaults(func=cmd_kl)

    p = sub.add_parser("train-dqn", parents=[common],
                       help="train the Q-network on a scenario directory")
    p.add_argument("--scenarios", required=True)
    p.set_defaults(func=cmd_train_dqn)

    p = sub.add_parser("train-meta", parents=[common],
                       help="meta-train an adaptable initialization")
    p.add_argument("--scenarios", required=True)
    p.set_defaults(func=cmd_train_meta)

    p = sub.add_parser("adapt", parents=[common],
                       help="adapt a meta checkpoint to one scenario")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--scenario", required=True)
    p.set_defaults(func=cmd_adapt)

    p = sub.add_parser("eval", parents=[common],
                       help="greedy evaluation of a checkpoint or baseline policy")
    p.add_argument("--scenario", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--checkpoint")
    group.add_argument("--policy", choices=tuple(BASELINES))
    p.add_argument("--trace", action="store_true", help="also write vehicles.csv")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", parents=[common],
                       help="travel time vs number of adaptation gradient steps")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--scenarios", required=True)
    p.add_argument("--ks", default="1,2,3,5,10")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("report", parents=[common],
                       help="run a full experiment manifest and write reports")
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - final safety net for exit code 4
        # a report's stage failure keeps the category of its cause
        cause = exc.__cause__ if isinstance(exc, ExperimentError) else exc
        if isinstance(cause, FileNotFoundError):
            print(f"ERROR[missing-file]: {exc}", file=sys.stderr)
            return 2
        if isinstance(cause, ValueError):
            print(f"ERROR[validation]: {exc}", file=sys.stderr)
            return 3
        print(f"ERROR[internal]: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
