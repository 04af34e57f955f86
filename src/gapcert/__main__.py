"""``python -m gapcert``: the gapcert console script."""

from .cli import entry

if __name__ == "__main__":
    entry()
