"""spikecal: training-free conversion of small feed-forward nets to spiking nets.

The pipeline is: train (or import) a relu net, fit per-layer thresholds and
calibrate biases against cached activations, then trade accuracy against
energy with three independent knobs searched per layer: burst caps (phi),
spike compression ratios (rho), and an entropy-gated early exit over
timesteps. See the ``cli`` module or the README for the end-to-end flow.
"""

from .calibrate import (
    ThresholdFit,
    calibrate_biases,
    clip_floor,
    configs_from_fits,
    fit_all_thresholds,
    fit_threshold,
    measure_unevenness,
    walk_thresholds,
)
from .early_exit import (
    ExitPolicy,
    ExitTrace,
    confidence,
    entropy,
    fit_exit_policy,
    infer_adaptive,
)
from .engine import (
    LayerSnnConfig,
    NeuronState,
    RunStats,
    SnnRun,
    run_snn,
    spiking_layer_indices,
    step_layer,
)
from .nn import (
    LayerSpec,
    ModelGraph,
    Tensor,
    as_tensor,
    build_cnn,
    build_mlp,
    forward,
    forward_with_taps,
)
from .search import (
    EnergyModel,
    EnergyOverflowError,
    LayerPlan,
    SearchBudget,
    SensitivityTable,
    apply_plan,
    build_table,
    energy_of,
    kl_divergence,
    pareto_search,
)
from .store import (
    CalibrationCache,
    DatasetHandle,
    build_calibration_cache,
    load_cache,
    load_idx,
    load_model,
    make_synthetic,
    model_digest,
    save_cache,
    save_model,
)
from .train import TrainingDivergedError, accuracy, train_reference

__version__ = "0.1.0"
