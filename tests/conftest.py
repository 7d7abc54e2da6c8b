"""Suite-wide hypothesis profiles.

``HYPOTHESIS_PROFILE=ci`` (set by the ``test`` job in ``ci.yml``) draws
the same examples on every run, so a property that fails in CI fails
the same way locally under the same variable.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
