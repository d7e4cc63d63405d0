"""``python3 -m graphbench``: the same command line as the ``graphbench`` script."""

import sys

from .cli import main

sys.exit(main())
