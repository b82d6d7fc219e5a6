"""Coordinated account-group detection from marked temporal event sequences.

The library couples a neural temporal point process (attention encoder,
log-normal mixture decoder) with a conditional random field over group
assignments whose pairwise potentials come from a prior co-appearance
graph. Training alternates mean-field inference of the assignment beliefs
with gradient ascent on a tractable surrogate objective. A Hawkes-process
synthesizer with planted coordinated groups provides ground truth for
end-to-end validation, and exhaustive-enumeration oracles back the field's
numerics on small instances.
"""

from .events import (
    AccountRegistry,
    DataError,
    Dataset,
    Event,
    EventSequence,
    load_dataset,
    load_labels,
    save_dataset,
    save_labels,
    split_long_sequences,
    train_val_test_split,
)
from .hawkes import HawkesParams, intensity, make_planted_scenario, simulate
from .graph import (
    KnowledgeGraph,
    co_occurrence,
    filter_power,
    filter_temporal_logic,
    load_graph,
    save_graph,
)
from .pointprocess import (
    SeqModelConfig,
    SequenceModel,
    TrainConfig,
    TrainingDiverged,
    train,
)
from .crf import (
    CrfParams,
    MeanField,
    UnaryScorer,
    estep_converge,
    estep_update,
    log_partition_bruteforce,
    marginals_bruteforce,
    mean_field_free_energy,
    potential,
)
from .em import (
    DetectionResult,
    EmConfig,
    check_prop1_bound,
    identify_coordinated_group,
    initialize,
    kmeans,
    run_em,
)
from .metrics import (
    average_precision,
    max_f1,
    roc_auc,
    thresholded_metrics,
)

__version__ = "0.1.0"
