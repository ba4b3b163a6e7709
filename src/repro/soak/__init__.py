"""Heavy-traffic soak engine: the paper's §3 availability question at
production transaction counts.

The serial experiments and the open-loop driver both retain a record per
transaction, capping runs at toy sizes.  A soak run instead streams every
outcome into O(1)-memory aggregates (:mod:`repro.metrics.streaming`),
draws arrivals from a time-varying load shape
(:mod:`repro.workload.shapes`), and drives the cluster *through* a
scheduled fail/recover cycle — reporting the client-visible availability
dip and the recovery time back to baseline as a byte-deterministic JSON
artifact.
"""

from repro.soak.engine import SoakConfig, SoakResult, run_soak
from repro.soak.report import (
    SOAK_SCHEMA,
    build_report,
    render_soak_text,
    validate_soak_report,
    write_soak_svg,
)

__all__ = [
    "SoakConfig",
    "SoakResult",
    "run_soak",
    "SOAK_SCHEMA",
    "build_report",
    "validate_soak_report",
    "render_soak_text",
    "write_soak_svg",
]
