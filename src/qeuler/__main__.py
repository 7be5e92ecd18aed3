"""Run the command-line interface: ``python -m qeuler verify all``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
