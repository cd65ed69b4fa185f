"""Fault injection and recovery soaking for the graceful-enforcement work.

:class:`FaultInjector` deterministically degrades the simulated hardware,
driver path and policy control plane (one period schedule per fault
kind, wired by ``attach``); :func:`run_soak` drives repeated
violation -> eject -> rollback -> re-insmod cycles under that noise and
audits the kernel for leaks after every recovery.
"""

from .injector import FaultInjector
from .soak import HOSTILE_MODULE, run_soak

__all__ = ["FaultInjector", "HOSTILE_MODULE", "run_soak"]
