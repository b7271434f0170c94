"""Session set-up shared by every test file.

When a `@given` test fails, hypothesis's pytest plugin imports
`hypothesis.extra._patching`, which raises a DeprecationWarning on import
(through `mypy_extensions.TypedDict`).  With warnings as errors
(`pyproject.toml`) that stops the whole session with INTERNALERROR, and
the tests after it never run.  Importing the module once here, with
DeprecationWarning ignored, leaves the plugin an imported module; every
other warning stays an error.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no hypothesis, or a release without the module
        pass
