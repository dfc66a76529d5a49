"""``python3 -m capspectra``: the command line, for running from a checkout."""

from .cli import entry

entry()
