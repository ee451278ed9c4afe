"""Run the command line interface: python -m sizeramsey ..."""

import sys

from .cli import main

sys.exit(main())
