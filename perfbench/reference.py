"""A fixed stand-in for set-up that none of the program's code runs in:
interpreter start, the standard-library imports of ``child.py`` and fixed
``Fraction`` work.  ``run.py`` times it from spawn to exit right after each
set-up-only child, to rescale that child's set-up time (see README.md)."""

from child import calibration_slice

for _ in range(40):
    calibration_slice()
