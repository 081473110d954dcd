"""Second-order semantic dependency parsing with end-to-end differentiable
approximate inference.

A biaffine scorer proposes edge and label scores, trilinear scorers add
sibling / co-parent / grandparent couplings, and either mean-field or
loopy belief propagation, unrolled for a fixed number of iterations, turns
scores into edge marginals that train through plain backpropagation. A
brute-force enumeration oracle provides exact marginals on small problems.
"""

from .autodiff import Tensor, backward
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig
from .errors import CapacityError, ConfigError, DataError, NumericError
from .exact import ExactResult, exact_infer
from .graph import (CandidateEdgeSet, SemGraph, Sentence, Token, build_candidate_edges,
                    decode, has_cycle)
from .lbp import lbp_run
from .metrics import EvalReport, bucket_f1, cycle_rate, evaluate, f1, top_f1
from .mf import mf_run
from .model import ModelConfig, ParserModel, ScoreFactors
from .pipeline import parse_sentence, run_inference, trace_sentence
from .potentials import InferenceState, LogPotentials, from_arrays, from_factors
from .sdp_io import (Vocabulary, build_vocab, format_sdp, load_pretrained,
                     parse_sdp, parse_sdp_lines, write_sdp)
from .training import (GradCheckResult, Optimizer, TrainConfig, TrainResult,
                       combined_loss, edge_loss, gradcheck, label_loss,
                       make_batches, sentence_loss, train)

__version__ = "0.1.0"
