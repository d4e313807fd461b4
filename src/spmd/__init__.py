"""Margin-distribution tensor classifiers with low-rank weight structure.

Binary classifiers on tensor-shaped samples whose weight tensor is held in
rank-1, CP, or Tucker form and trained by alternating block updates, each
block a box-constrained dual QP balancing margin mean, margin variance, and
hinge loss. Includes vector-space baselines (the same objective on flattened
data, and the plain SVM at mu1 = mu2 = 0), numerical checks of the norm and
generalization guarantees, a one-vs-one multiclass harness, and a CLI.
"""

__version__ = "0.1.0"

from .data import (LabeledDataset, MulticlassDataset, load_dataset, load_idx,
                   reshape_samples, save_dataset, select_binary, synth_blobs,
                   synth_multiclass)
from .margins import MarginSummary, signed_margins
from .multiclass import OvoEnsemble, ovo_train, pairwise_accuracy
from .qp import QpProblem, QpSolution, solve_box_qp
from .tensor import (DenseTensor, cp_reconstruct, khatri_rao, tucker_reconstruct,
                     unfold)
from .theory import (BoundReport, cantelli_margin_tail, descent_certificate,
                     generalization_bound, rademacher_bound, spectral_norm,
                     tucker_norm_inequality)
from .trainer import (Hyper, TrainConfig, TrainReport, WeightModel,
                      block_features, block_update, core_features, load_model,
                      predict, primal_objective, save_model, train)

__all__ = [name for name in dir() if not name.startswith("_")]
