"""Node embeddings for multiplex networks with per-view missing data."""

from .autoencoder import (AutoencoderParams, decode, encode, init_autoencoder,
                          train_view_autoencoder)
from .evaluation import (EvalProtocol, MetricsReport, classify_f1, cluster_accuracy,
                         cross_validate, knn_impute, pdr_sweep)
from .graph_model import (MultiplexNetwork, SynthConfig, ViewData, apply_pdr,
                          normalize_features, synth_generate, validate)
from .io import checkpoint, load_network, restore, save_embeddings, save_network
from .proximity import ProximityConfig, ProximityLaplacian, ProximityStack, build_stack
from .quantizer import BinaryCodes, binarize_sign, itq, pack_codes, unpack_codes
from .trainer import (EmbeddingState, Hyperparams, forward_passes, grad_Y, objective,
                      reconstruct_missing, representations, train, update_B, update_H, update_Y)

__version__ = "0.1.0"
