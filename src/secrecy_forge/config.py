"""Numeric policy: default tolerances and size caps.

Only the tolerances in ``default_tolerances`` can be overridden (by the
CLI's --tol.<name> flags).  Caps can be overridden per process through the
``SECRECY_FORGE_CAPS`` environment variable, a JSON object mapping cap
names to JSON integers (not booleans), e.g.

    SECRECY_FORGE_CAPS='{"product_states": 16384}'
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace

from .errors import UsageError

# Probability arrays must sum to one within this tolerance.
VALIDATION_TOL = 1e-12

# Entries below this are treated as structural zeros when building
# support graphs and conditional slices.
SUPPORT_EPS = 1e-12

# Entropy-equality checks (block independence, unambiguity, ...).
ENTROPY_TOL = 1e-9

# Cross-measure chain checks on the semi-unambiguous class.
CHAIN_TOL = 2e-2

# Hermiticity / positivity slack accepted by state constructors.
STATE_TOL = 1e-10

# Two key rates count as equal within this gap.  It is the default of
# --tol.equality, which reaches dequantize-check and the reproduce items;
# advantage labels, the lemma's agreement checks and the extension-bound
# check in verify_chain read it fixed.
EQUALITY_TOL = 1e-9

ENV_CAPS = "SECRECY_FORGE_CAPS"


@dataclass(frozen=True)
class Caps:
    """Hard size limits for exact dense computations."""

    product_states: int = 4096   # joint alphabet size of an i.i.d. power
    # total dimension of a density matrix; dequantize-check caps its
    # output law's entries (out_a * out_b * |Z|^n * transcripts) by it
    rho_dim: int = 256
    branch_terms: int = 1_000_000  # summands in a protocol simulation


def load_caps(env: dict[str, str] | None = None) -> Caps:
    """Read caps, applying any SECRECY_FORGE_CAPS overrides."""
    raw = (env if env is not None else os.environ).get(ENV_CAPS)
    caps = Caps()
    if not raw:
        return caps
    try:
        overrides = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{ENV_CAPS} is not valid JSON: {exc}") from exc
    if not isinstance(overrides, dict):
        raise UsageError(f"{ENV_CAPS} must be a JSON object")
    known = set(Caps.__dataclass_fields__)
    for name, value in overrides.items():
        if name not in known:
            raise UsageError(f"unknown cap {name!r} in {ENV_CAPS}")
        if type(value) is not int or value <= 0:
            raise UsageError(f"cap {name!r} must be a positive integer")
        caps = replace(caps, **{name: value})
    return caps


def default_tolerances() -> dict[str, float]:
    """Tolerance names accepted by the CLI's --tol.<name> flags."""
    return {
        "support": SUPPORT_EPS,
        "entropy": ENTROPY_TOL,
        "chain": CHAIN_TOL,
        "equality": EQUALITY_TOL,
    }
