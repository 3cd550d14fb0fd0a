"""``python -m chaoslab``: the command-line front end (``chaoslab.cli``)."""

import sys

from .cli import main

sys.exit(main())
