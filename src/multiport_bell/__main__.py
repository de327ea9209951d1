"""``python -m multiport_bell``: the command line of ``multiport_bell.cli``."""

from .cli import console_main

console_main()
