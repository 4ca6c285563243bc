"""Sites, latency matrices, topology generators, and churn.

:mod:`repro.topology.sites` encodes the paper's Table 1 testbed -- the
five WAN machines plus the Bloomington client site -- with a calibrated
one-way latency matrix.  :mod:`repro.topology.generators` produces
larger random site sets for the scaling ablations, and
:mod:`repro.topology.churn` drives broker join/leave processes ("broker
processes may join and leave the broker network at arbitrary times and
intervals").
"""

from repro.topology.sites import (
    SiteSpec,
    PAPER_SITES,
    TABLE1_MACHINES,
    paper_latency_model,
    paper_site_names,
)
from repro.topology.generators import random_waxman_sites
from repro.topology.churn import ChurnProcess

__all__ = [
    "SiteSpec",
    "PAPER_SITES",
    "TABLE1_MACHINES",
    "paper_latency_model",
    "paper_site_names",
    "random_waxman_sites",
    "ChurnProcess",
]
