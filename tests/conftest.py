"""Shared fixtures.

Every config that any test validates through ``spdm.io.validate_config``
(directly by module attribute, through ``load_config`` or through the
CLI) is also judged by jsonschema, and the two verdicts must agree: the
stdlib checker decides which configs skip jsonschema altogether.
"""

import pytest

from spdm import io as spdm_io


@pytest.fixture(autouse=True)
def checker_agrees_with_jsonschema(monkeypatch):
    from jsonschema import Draft202012Validator

    validate = spdm_io.validate_config
    reference = Draft202012Validator(spdm_io._load_schema())

    def checked(config):
        accepted = spdm_io._conforms(spdm_io._load_schema(), config)
        assert accepted == reference.is_valid(config), config
        return validate(config)

    monkeypatch.setattr(spdm_io, "validate_config", checked)
