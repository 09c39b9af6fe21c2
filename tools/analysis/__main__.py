"""``python -m tools.analysis`` entry point."""

from __future__ import annotations

import sys

from tools.analysis.cli import main

if __name__ == "__main__":
    sys.exit(main())
