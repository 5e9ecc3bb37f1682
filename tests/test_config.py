"""Numeric policy: cap overrides from the environment."""

import pytest

from secrecy_forge.config import ENV_CAPS, Caps, load_caps
from secrecy_forge.errors import UsageError


def test_caps_default_without_override():
    assert load_caps({}) == Caps()


def test_caps_override_applies():
    caps = load_caps({ENV_CAPS: '{"rho_dim": 512}'})
    assert caps == Caps(rho_dim=512)
    assert type(caps.rho_dim) is int


@pytest.mark.parametrize("raw", [
    "{not json",
    "[512]",
    '{"bogus": 1}',
    '{"rho_dim": 0}',
    '{"rho_dim": -4}',
    '{"rho_dim": true}',
    '{"rho_dim": 512.0}',
    '{"rho_dim": "512"}',
])
def test_caps_override_rejected(raw):
    with pytest.raises(UsageError):
        load_caps({ENV_CAPS: raw})
