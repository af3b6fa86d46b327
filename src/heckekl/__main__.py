"""``python -m heckekl ...`` runs the command line (see heckekl.cli)."""

import sys

from .cli import main

sys.exit(main())
