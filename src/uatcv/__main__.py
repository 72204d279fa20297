"""``python -m uatcv``: the command-line interface of :mod:`uatcv.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
