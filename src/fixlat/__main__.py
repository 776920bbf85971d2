"""``python -m fixlat``: the command line, where no console script is installed."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
