"""Entry point for ``python -m repro``."""

import sys

from repro.cli import main

sys.exit(main())
