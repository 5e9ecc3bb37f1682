"""Secret-key distillation analysis for tripartite distributions.

The package classifies distributions p(x, y, z) shared by two honest
parties and an eavesdropper, computes exact secret-key rates for the
classes that admit them, embeds distributions into quantum states at
three coherence levels, and checks the resulting key rates against
entanglement measures of the embedded states.  A separate module
dequantizes tree-shaped measurement protocols acting on incoherent
inputs into equivalent classical protocols.

The top level exports the version and the names the benchmark reads
from it; everything else is imported from its module.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .classify import classify
from .dequantize import random_instrument_tree, verify_equivalence
from .distributions import Dist3, product_power
from .embeddings import embed_qqq
from .entanglement import eof_2q, eof_numeric, negativity_log, rel_ent_upper
from .keyrates import (
    binary_eve_family,
    kd_class,
    one_sided_coherence_example,
    two_block_uniform_example,
)
from .qlinalg import QState, partial_trace

__all__ = [
    "__version__",
    "Dist3",
    "QState",
    "binary_eve_family",
    "classify",
    "embed_qqq",
    "eof_2q",
    "eof_numeric",
    "kd_class",
    "negativity_log",
    "one_sided_coherence_example",
    "partial_trace",
    "product_power",
    "random_instrument_tree",
    "rel_ent_upper",
    "two_block_uniform_example",
    "verify_equivalence",
]
