"""`python -m slowfast <subcommand> ...`: the command-line driver of `slowfast.cli`."""

from .cli import main

if __name__ == "__main__":
    main()
