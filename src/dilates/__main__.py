"""``python -m dilates ...`` runs the ``dilates`` command with the same
arguments, output and exit code."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
