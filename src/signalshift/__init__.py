"""signalshift: a desk-scale workbench for distribution shift in RL
traffic signal control.

Subsystems: a point-queue intersection simulator, scenario generation and
count ingestion, movement-share KL metrics, a shared-weight phase-competition
Q-network with explicit gradients, DQN and meta-learned training loops, and
an experiment harness that reports travel time against distribution shift.
"""

from .intersection import (
    EpisodeResult,
    IntersectionConfig,
    SimState,
    initial_state,
    observe,
    run_episode,
    step,
    write_vehicle_trace,
)
from .scenarios import (
    BaseDistribution,
    FlowSpec,
    ParseError,
    Provenance,
    ScenarioSet,
    ingest_counts_csv,
    load_scenario_dir,
    make_test_scenarios,
    make_training_set,
    perturb_base,
    read_bases_csv,
    read_flow_csv,
    sample_arrivals,
    write_bases_csv,
    write_flow_csv,
    write_scenario_set,
)
from .metrics import (
    MovementDistribution,
    average_distribution,
    average_training_distribution,
    kl_distance,
    movement_distribution,
)
from .network import (
    Batch,
    QNetworkParams,
    bellman_grads,
    bind,
    frap_forward,
    init_params,
    load_params,
    save_params,
    sgd_step,
)
from .dqn import (
    DqnHyper,
    FixedTimePolicy,
    GreedyPolicy,
    MaxPressurePolicy,
    RandomPolicy,
    ReplayMemory,
    TrainResult,
    epsilon_greedy,
    train_dqn,
)
from .meta import (
    AdaptResult,
    MetaCheckpoint,
    MetaHyper,
    MetaTrainResult,
    ablate_steps,
    adapt_to_scenario,
    global_update,
    individual_adapt,
    load_meta_checkpoint,
    save_meta_checkpoint,
    train_metalight,
)
from .harness import (
    ALGORITHMS,
    EvalRecord,
    ExperimentError,
    ExperimentManifest,
    emit_curve,
    evaluate,
    load_manifest,
    run_experiment,
)
from .config import Settings, load_settings
from .seeding import spawn_rng

__version__ = "0.1.0"
