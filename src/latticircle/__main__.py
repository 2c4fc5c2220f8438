"""``python -m latticircle``: the same CLI as the ``latticircle`` script."""

from latticircle.cli import main

if __name__ == "__main__":
    main()
