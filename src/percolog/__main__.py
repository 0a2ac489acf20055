"""`python -m percolog`: the command line, from a checkout or an install."""

from .cli import run

if __name__ == "__main__":
    run()
