"""Coordinated account-group detection from marked temporal event sequences.

The library couples a neural temporal point process (attention encoder,
log-normal mixture decoder) with a conditional random field over group
assignments whose pairwise potentials come from a prior co-appearance
graph. Training alternates mean-field inference of the assignment beliefs
with gradient ascent on a tractable surrogate objective. A Hawkes-process
synthesizer with planted coordinated groups provides ground truth for
end-to-end validation. The oracles that check the maths on small instances
(enumeration of the field, the Hawkes intensity) live in the tests.
"""

from .events import load_dataset, save_dataset, save_labels, split_long_sequences
from .hawkes import make_planted_scenario
from .metrics import average_precision, roc_auc
from .pointprocess import SequenceModel

__version__ = "0.1.0"
