"""``python -m morera COMMAND ...`` runs the command-line interface, as the ``morera`` script does."""

import sys

from .cli import main

sys.exit(main())
