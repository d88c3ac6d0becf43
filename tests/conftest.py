import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# A property without a max_examples of its own runs 100 examples under the
# `default` profile and 2,000 under `deep`: `pytest --hypothesis-profile=deep`.
settings.register_profile("default", max_examples=100, deadline=None)
settings.register_profile("deep", max_examples=2000, deadline=None)
settings.load_profile("default")
