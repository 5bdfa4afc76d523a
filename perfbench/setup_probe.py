"""Set-up probe: import ``gexplab.cli``, load and validate one config, exit.

Usage: python setup_probe.py CONFIG  (with ``src`` on the import path)
"""

import sys

from gexplab.cli import load_config, validate_config

if __name__ == "__main__":
    validate_config(load_config(sys.argv[1]))
