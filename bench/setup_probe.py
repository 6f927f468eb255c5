"""Set-up probe: import the eigenflow CLI, then load and validate config files.

``run.py`` times this script in a fresh interpreter (with ``PYTHONPATH``
pointing at the sources) to measure what a user pays before any work:
``python3 bench/setup_probe.py CONFIG...``.
"""

import sys

from eigenflow.cli import main  # noqa: F401  (the entry point a user runs)
from eigenflow.config import load_config
from eigenflow.presets import resolve_config, validate_config

for path in sys.argv[1:]:
    validate_config(resolve_config(load_config(path)))
