"""jsonschema as the reference for the config checker in ``spdm.io``.

``reference_error(config)`` is the ``ConfigError`` text that
``spdm.io.validate_config`` must raise for a config the schema rejects:
the location and message of the error ``jsonschema.validate`` raises,
its ``best_match`` among all errors.  The validator is built once, so a
call does not check the schema against its meta-schema again.
"""

import functools

from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match

from spdm.io import _load_schema


@functools.cache
def _validator():
    return Draft202012Validator(_load_schema())


def reference_error(config):
    """``config invalid at <loc>: <message>`` for the error jsonschema
    reports in ``config``, or None if jsonschema accepts it."""
    error = best_match(_validator().iter_errors(config))
    if error is None:
        return None
    loc = "/".join(str(p) for p in error.absolute_path) or "<root>"
    return f"config invalid at {loc}: {error.message}"
