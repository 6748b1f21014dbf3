"""Naming and location service (S5).

A drastically simplified Globe location service: object handles resolve to
the contact addresses of stores willing to accept binds.
"""

from repro.naming.service import NameService, UnknownObject

__all__ = ["NameService", "UnknownObject"]
