"""``python -m motkit``: the same command line as the ``motkit`` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
