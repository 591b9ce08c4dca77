"""`python -m polymulgen ...`: the same command line as the `polymulgen` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
