"""``python -m mtdsim``: the same command line as the ``mtdsim`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
