"""The paper's Table 1 testbed, as a simulated WAN.

Table 1 lists five machines:

====================== ============================== =========================
Machine                Location                       Hardware
====================== ============================== =========================
complexity.ucs.indiana Indianapolis, IN, USA          SunOS 5.9, Sun-Fire-880
webis.msi.umn.edu      Minneapolis, MN, USA           Linux, 2x Opteron 240
tungsten.ncsa.uiuc.edu NCSA, Urbana-Champaign IL, USA Linux SMP, i686
pamd2.fsit.fsu.edu     Tallahassee, FL, USA           Linux, i686
bouscat.cs.cf.ac.uk    Cardiff, UK                    Linux SMP, i686
====================== ============================== =========================

Discovery clients additionally ran in **Bloomington, IN** (the
Community Grids Lab), which we model as a sixth site.

The one-way latency matrix below is calibrated to early-2000s Internet2
/ JANET paths: a couple of ms within Indiana, ~5-25 ms across the US
midwest/southeast, and ~55-65 ms one-way across the Atlantic to
Cardiff.  Absolute values only anchor the scale; every reproduced
*shape* (orderings, breakdown percentages, crossovers) depends on the
relative distances, which these values preserve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.simnet.latency import MatrixLatencyModel

__all__ = [
    "SiteSpec",
    "TABLE1_MACHINES",
    "PAPER_SITES",
    "paper_site_names",
    "paper_latency_model",
]


@dataclass(frozen=True, slots=True)
class SiteSpec:
    """One testbed site.

    Attributes
    ----------
    name:
        Short site key used throughout the simulation.
    location:
        Human-readable location from Table 1.
    machine:
        The testbed hostname at this site ("" for the client-only
        Bloomington site).
    region:
        Coarse geography used by BDN interest filters
        (``"north-america"`` / ``"europe"``).
    description:
        Hardware/JVM notes from Table 1.
    """

    name: str
    location: str
    machine: str
    region: str
    description: str = ""


TABLE1_MACHINES: tuple[SiteSpec, ...] = (
    SiteSpec(
        name="indianapolis",
        location="Indianapolis, IN, USA",
        machine="complexity.ucs.indiana.edu",
        region="north-america",
        description="SunOS 5.9 Sun-Fire-880 sparc; HotSpot Client VM 1.4.2",
    ),
    SiteSpec(
        name="minneapolis",
        location="University of Minnesota, Minneapolis, MN, USA",
        machine="webis.msi.umn.edu",
        region="north-america",
        description="Linux gentoo x86_64, 2x AMD Opteron 240; Blackdown 64-bit Server VM",
    ),
    SiteSpec(
        name="urbana",
        location="NCSA, UIUC, IL, USA",
        machine="tungsten.ncsa.uiuc.edu",
        region="north-america",
        description="Linux SMP i686; HotSpot Client VM 1.4.1_01",
    ),
    SiteSpec(
        name="tallahassee",
        location="Florida State University, Tallahassee, FL, USA",
        machine="pamd2.fsit.fsu.edu",
        region="north-america",
        description="Linux SMP i686; Blackdown Client VM",
    ),
    SiteSpec(
        name="cardiff",
        location="Cardiff University, Cardiff, UK",
        machine="bouscat.cs.cf.ac.uk",
        region="europe",
        description="Linux SMP i686; HotSpot Client VM 1.4.1_01",
    ),
)

_BLOOMINGTON = SiteSpec(
    name="bloomington",
    location="Community Grids Lab, Bloomington, IN, USA",
    machine="",
    region="north-america",
    description="Discovery client / BDN site (paper section 9)",
)

#: All six sites: the five Table 1 machines plus the Bloomington client site.
PAPER_SITES: tuple[SiteSpec, ...] = TABLE1_MACHINES + (_BLOOMINGTON,)

# One-way propagation latencies in milliseconds, ordered as PAPER_SITES:
# indianapolis, minneapolis, urbana, tallahassee, cardiff, bloomington.
_ONE_WAY_MS = np.array(
    [
        # ind    minn   urb    tall   card   bloo
        [0.30, 11.0, 5.0, 17.0, 54.0, 2.0],  # indianapolis
        [11.0, 0.30, 8.0, 25.0, 60.0, 12.0],  # minneapolis
        [5.0, 8.0, 0.30, 20.0, 57.0, 6.0],  # urbana
        [17.0, 25.0, 20.0, 0.30, 65.0, 18.0],  # tallahassee
        [54.0, 60.0, 57.0, 65.0, 0.30, 55.0],  # cardiff
        [2.0, 12.0, 6.0, 18.0, 55.0, 0.30],  # bloomington
    ]
)


def paper_site_names() -> tuple[str, ...]:
    """The six site keys, in matrix order."""
    return tuple(site.name for site in PAPER_SITES)


def paper_latency_model(jitter_sigma: float = 0.08) -> MatrixLatencyModel:
    """The Table 1 WAN as a :class:`MatrixLatencyModel`.

    ``jitter_sigma`` is the lognormal jitter sigma (0 for deterministic
    delays in tests).
    """
    return MatrixLatencyModel(
        sites=paper_site_names(), one_way_ms=_ONE_WAY_MS, jitter_sigma=jitter_sigma
    )
