"""Settings shared by every test directory: hypothesis draws the same
examples on every run, keeps no example database, and writes its other
caches to a directory that is removed at exit, not into the source tree."""

import os
import tempfile

from hypothesis import settings

settings.register_profile("predgrad", derandomize=True, database=None, deadline=None)
settings.load_profile("predgrad")

_storage = tempfile.TemporaryDirectory(prefix="hypothesis-")
os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = _storage.name
