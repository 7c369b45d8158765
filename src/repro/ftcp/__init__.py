"""FT-TCP-style restart-and-replay failover baseline (paper §2)."""

from repro.ftcp.baseline import FTCPBackup, FTCPConfig

__all__ = ["FTCPBackup", "FTCPConfig"]
