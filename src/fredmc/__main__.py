"""``python -m fredmc``: the command-line front end of ``fredmc.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
