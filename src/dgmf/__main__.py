"""``python -m dgmf COMMAND ...``: the ``dgmf`` command line (``cli.main``)."""

import sys

from .cli import main

sys.exit(main())
