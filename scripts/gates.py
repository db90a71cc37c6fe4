"""Shared helpers for the python heredocs of the scripts/check_*.sh gates.

scripts/lib.sh puts this directory on PYTHONPATH and names the calling gate
in MIF_GATE, so a heredoc only needs:

    from gates import require, close, require_conserved
"""
import os
import sys

GATE = os.environ.get("MIF_GATE", "gate")

# The four disk-time components an attribution account splits disk_ms into.
DISK = ("disk_seek_ms", "disk_rotation_ms", "disk_skip_ms",
        "disk_transfer_ms")


def require(cond, msg):
    if not cond:
        sys.exit(f"{GATE}: FAIL: {msg}")


def close(a, b):
    """Equal within 1e-9 relative (absolute below 1)."""
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def require_conserved(name, attribution, where=""):
    """Attribution conservation for run `name`: in every cost category the
    per-principal sums equal the global counters — disk time, network time
    and MDS cpu within 1e-9 relative, network bytes exactly.  `where` is
    appended to failure messages (e.g. " under qos")."""
    require(isinstance(attribution, dict),
            f"run '{name}' has no attribution section")
    principals = attribution.get("principals")
    glob = attribution.get("global")
    require(isinstance(principals, dict) and principals,
            f"run '{name}' has no principals")
    require(isinstance(glob, dict), f"run '{name}' has no global comparands")
    sums = {"disk_ms": 0.0, "net_ms": 0.0, "mds_cpu_ms": 0.0, "net_bytes": 0}
    for acct in principals.values():
        sums["disk_ms"] += sum(acct[k] for k in DISK)
        sums["net_ms"] += acct["net_ms"]
        sums["mds_cpu_ms"] += acct["mds_cpu_ms"]
        sums["net_bytes"] += acct["net_bytes"]
    for key in ("disk_ms", "net_ms", "mds_cpu_ms"):
        require(close(sums[key], glob[key]),
                f"run '{name}' {key} not conserved{where}: principals "
                f"{sums[key]} vs global {glob[key]}")
    require(sums["net_bytes"] == glob["net_bytes"],
            f"run '{name}' net_bytes not conserved{where}: principals "
            f"{sums['net_bytes']} vs global {glob['net_bytes']}")
