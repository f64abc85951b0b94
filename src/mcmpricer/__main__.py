"""``python -m mcmpricer``: the same CLI as the ``mcmpricer`` console script."""

import sys

from .bench import main

if __name__ == "__main__":
    sys.exit(main())
