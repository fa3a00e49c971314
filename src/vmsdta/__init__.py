"""Dual-time-scale dynamic traffic assignment with VMS en-route diversion
and day-to-day compliance learning."""

__version__ = "0.1.0"
