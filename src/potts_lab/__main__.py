"""`python -m potts_lab` runs the potts-lab command line."""

from .cli import main

main()
