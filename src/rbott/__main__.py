"""``python -m rbott``: the rbott command line."""

import sys

from .cli import main

sys.exit(main())
