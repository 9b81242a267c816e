"""Suite-wide settings: hypothesis draws the same examples on every run and
writes nothing into the source tree."""

import atexit
import tempfile

try:
    from hypothesis import settings
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:  # the property tests skip themselves without it
    settings = None

if settings is not None:
    # no deadline (a stalled machine is not a failure), a fixed example
    # stream, and no example database
    settings.register_profile("massflat", deadline=None, derandomize=True,
                              database=None)
    settings.load_profile("massflat")
    # hypothesis still caches the constants it reads from the source under
    # its home directory, ./.hypothesis by default
    _home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    atexit.register(_home.cleanup)
    set_hypothesis_home_dir(_home.name)
