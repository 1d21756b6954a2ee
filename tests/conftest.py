"""Shared fixtures.

Every config that any test validates through ``spdm.io.validate_config``
(directly by module attribute, through ``load_config`` or through the
CLI) is also judged by jsonschema, the reference for the stdlib checker:
the two verdicts must agree, and a config the checker rejects must be
rejected with jsonschema's words for the same error.
"""

import pytest

from spdm import ConfigError
from spdm import io as spdm_io

from schema_reference import reference_error


@pytest.fixture(autouse=True)
def checker_agrees_with_jsonschema(monkeypatch):
    validate = spdm_io.validate_config

    def checked(config):
        expected = reference_error(config)
        accepted = spdm_io._conforms(spdm_io._load_schema(), config)
        assert accepted == (expected is None), config
        try:
            return validate(config)
        except ConfigError as exc:
            # an inf or NaN is refused first, with the checker's own words
            if spdm_io._non_finite(config) is None:
                assert str(exc) == expected, config
            raise

    monkeypatch.setattr(spdm_io, "validate_config", checked)
