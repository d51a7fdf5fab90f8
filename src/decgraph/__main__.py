"""``python -m decgraph``: the command line of ``decgraph.cli``."""

import sys

from .cli import main

sys.exit(main())
