"""`python -m hsroots`: the command line of `hsroots.cli`."""

import sys

from .cli import main

sys.exit(main())
