"""``python -m cwkit ...`` runs the command-line interface."""

from .cli import main

main()
