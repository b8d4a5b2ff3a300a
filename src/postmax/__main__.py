"""Entry point for ``python -m postmax``: the same command line as ``postmax``."""

from postmax.commands import main

if __name__ == "__main__":
    main()
