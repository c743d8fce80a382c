"""Typed, seeded fault injection for the serving runtime.

A :class:`FaultPlan` is the one input through which faults reach
:meth:`ServingRuntime.run <repro.serving.runtime.ServingRuntime.run>`: a
validated schedule of **fault events** (the golden
:meth:`~repro.serving.report.ServingReport.digest` contract extends to
faulted runs):

- ``fail`` / ``recover`` — device crash/comeback (feasibility probe, queue
  flush, adaptive re-placement with switching cost);
- ``slow`` / ``slow-end`` — a *straggler* window: the device's compute
  service times are multiplied by ``factor`` (> 1 slows, < 1 speeds up)
  until the matching ``slow-end``.  Routing, wait estimates, and the
  micro-batcher all price the degraded speed; SLO deadlines keep using the
  *nominal* hardware (a straggler does not earn its requests longer
  deadlines);
- ``link-degrade`` / ``link-restore`` — one network link's bandwidth is
  scaled by ``factor`` (``0 < factor < 1``), or **cut** entirely
  (``factor == 0``), repriced through
  :meth:`~repro.cluster.network.Network.degrade_link`.  A cut that
  disconnects devices from the requester *partitions* them: they leave the
  routable pool exactly like failed devices (queues flushed, in-flight work
  lost, re-placement triggered) and rejoin when connectivity returns;
- a **regional outage** is a correlated group of ``fail`` events carrying a
  shared ``region`` tag (see :func:`regional_outage`).

Builders turn common shapes into event lists: :func:`crash`,
:func:`slowdown`, :func:`degrade_link`, :func:`regional_outage`, and
:func:`generate_churn` (a seeded Poisson stream of fail/recover events).
Combine their output with :meth:`FaultPlan.ordered`.

All times are **seconds** of simulated time.  Validation is strict and
front-loaded: malformed events (negative/NaN times, unknown kinds, bad
factors) raise at construction, an unsorted plan raises at construction,
and unknown device/link names raise in :meth:`ServingRuntime.run
<repro.serving.runtime.ServingRuntime.run>` before any serving starts —
never silently applied or dropped.

Graceful-degradation policies ride alongside the plan:
:class:`~repro.serving.slo.RetryPolicy` (per-attempt timeout + bounded
retries + exponential backoff; exhausted requests terminate as
``timed_out``) and :class:`BrownoutPolicy` (backlog-pressure admission
tiering: shed the lowest-SLO-slack model classes first instead of
collapsing).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.utils.seeding import rng_for

#: Fault-event kinds.
FAIL = "fail"
RECOVER = "recover"
SLOW = "slow"
SLOW_END = "slow-end"
LINK_DEGRADE = "link-degrade"
LINK_RESTORE = "link-restore"

#: Kinds that target a device, and kinds that target a link.
DEVICE_KINDS = (FAIL, RECOVER, SLOW, SLOW_END)
LINK_KINDS = (LINK_DEGRADE, LINK_RESTORE)
ALL_KINDS = DEVICE_KINDS + LINK_KINDS


def _is_number(value) -> bool:
    """A real number that is not a ``bool`` (``True`` is no time or factor)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_time(time: float) -> None:
    if not _is_number(time) or not math.isfinite(time):
        raise ValueError(f"fault time must be a finite number, got {time!r}")
    if time < 0:
        raise ValueError(f"fault time must be non-negative, got {time}")


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault at ``time`` (seconds of simulated time).

    Exactly one of ``device`` (for :data:`DEVICE_KINDS`) or ``link`` (for
    :data:`LINK_KINDS`, as an endpoint pair) is set.  ``factor`` is the
    compute-time multiplier for ``slow`` (finite, > 0) or the bandwidth
    multiplier for ``link-degrade`` (``0 <= factor < 1``; ``0`` cuts the
    link).  ``region`` optionally tags correlated events (regional outages)
    for the churn log.
    """

    time: float
    kind: str
    device: Optional[str] = None
    link: Optional[Tuple[str, str]] = None
    factor: float = 1.0
    region: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ALL_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {ALL_KINDS}"
            )
        _check_time(self.time)
        if self.kind in DEVICE_KINDS:
            if not self.device or self.link is not None:
                raise ValueError(
                    f"{self.kind!r} fault at t={self.time} must name a device "
                    "(and no link)"
                )
        else:
            if self.link is None or self.device is not None:
                raise ValueError(
                    f"{self.kind!r} fault at t={self.time} must name a link "
                    "endpoint pair (and no device)"
                )
            a, b = self.link
            if not a or not b or a == b:
                raise ValueError(f"link fault at t={self.time} needs two distinct endpoints")
        if self.kind in (SLOW, LINK_DEGRADE) and not _is_number(self.factor):
            raise ValueError(f"{self.kind} factor must be a finite number, got {self.factor!r}")
        if self.kind == SLOW:
            if not math.isfinite(self.factor) or self.factor <= 0:
                raise ValueError(
                    f"slow factor must be finite and positive, got {self.factor}"
                )
        if self.kind == LINK_DEGRADE:
            if not math.isfinite(self.factor) or not 0.0 <= self.factor < 1.0:
                raise ValueError(
                    f"link-degrade factor must be in [0, 1), got {self.factor} "
                    "(0 cuts the link; use link-restore to undo)"
                )

    @property
    def label(self) -> str:
        """The log label: the device name, or ``a<->b`` for link events."""
        if self.device is not None:
            return self.device
        a, b = self.link  # type: ignore[misc]
        return f"{a}<->{b}"


def _sort_key(event: FaultEvent) -> Tuple[float, str]:
    return (event.time, event.label)


@dataclass(frozen=True)
class FaultPlan:
    """A validated, time-sorted schedule of :class:`FaultEvent`.

    The constructor is strict: events must already be sorted by time
    (non-decreasing) — an unsorted plan raises :class:`ValueError` rather
    than being silently reordered.  Use :meth:`ordered` to build a plan
    from builder output in any order.
    """

    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        events = tuple(self.events)
        object.__setattr__(self, "events", events)
        for earlier, later in zip(events, events[1:]):
            if later.time < earlier.time:
                raise ValueError(
                    f"fault plan is not sorted by time: {later.kind!r} at "
                    f"t={later.time} follows t={earlier.time}; sort events "
                    "(or build via FaultPlan.ordered)"
                )

    @classmethod
    def ordered(cls, events: Iterable[FaultEvent]) -> "FaultPlan":
        """Build a plan from events in any order (stable (time, label) sort)."""
        return cls(tuple(sorted(events, key=_sort_key)))

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def validate_for(
        self,
        device_names: Sequence[str],
        network=None,
    ) -> None:
        """Check every event against the serving pool before the run starts.

        Unknown device names raise :class:`ValueError`; with ``network``
        given, link events must name an existing topology edge.  A plan
        that cuts a link and never restores it also raises — it could
        strand requests waiting forever on a partition that never heals.
        """
        known = set(device_names)
        open_cuts = {}
        for event in self.events:
            if event.kind in DEVICE_KINDS:
                if event.device not in known:
                    raise ValueError(
                        f"fault plan names unknown device {event.device!r} "
                        f"(pool: {sorted(known)})"
                    )
            else:
                a, b = event.link  # type: ignore[misc]
                if network is not None and not network.has_link(a, b):
                    raise ValueError(
                        f"fault plan names unknown link {a!r} <-> {b!r}"
                    )
                key = (a, b) if a <= b else (b, a)
                if event.kind == LINK_DEGRADE and event.factor == 0.0:
                    open_cuts[key] = event.time
                elif event.kind == LINK_RESTORE or (
                    event.kind == LINK_DEGRADE and event.factor > 0.0
                ):
                    open_cuts.pop(key, None)
        if open_cuts:
            (a, b), when = next(iter(sorted(open_cuts.items())))
            raise ValueError(
                f"link {a!r} <-> {b!r} is cut at t={when} and never restored; "
                "a permanent partition can strand requests — add a "
                "link-restore event"
            )


# ======================================================================
# Builders (convenience constructors for common fault shapes)
# ======================================================================
def crash(device: str, at: float, until: Optional[float] = None) -> List[FaultEvent]:
    """A device crash at ``at``, optionally recovering at ``until``."""
    events = [FaultEvent(time=at, kind=FAIL, device=device)]
    if until is not None:
        if until <= at:
            raise ValueError(f"recovery time {until} must be after crash time {at}")
        events.append(FaultEvent(time=until, kind=RECOVER, device=device))
    return events


def slowdown(device: str, factor: float, start: float, end: float) -> List[FaultEvent]:
    """A straggler window: ``device`` computes ``factor``x slower in [start, end)."""
    if end <= start:
        raise ValueError(f"slowdown window must have end > start, got [{start}, {end})")
    return [
        FaultEvent(time=start, kind=SLOW, device=device, factor=factor),
        FaultEvent(time=end, kind=SLOW_END, device=device),
    ]


def degrade_link(
    a: str, b: str, factor: float, start: float, end: Optional[float] = None
) -> List[FaultEvent]:
    """Scale one link's bandwidth by ``factor`` from ``start``; ``factor=0``
    cuts the link (then ``end`` is required — permanent cuts are invalid)."""
    events = [FaultEvent(time=start, kind=LINK_DEGRADE, link=(a, b), factor=factor)]
    if end is not None:
        if end <= start:
            raise ValueError(f"link window must have end > start, got [{start}, {end})")
        events.append(FaultEvent(time=end, kind=LINK_RESTORE, link=(a, b)))
    return events


def regional_outage(
    devices: Sequence[str],
    start: float,
    end: Optional[float] = None,
    region: str = "region",
) -> List[FaultEvent]:
    """A correlated outage: every device in the group fails at ``start``
    (tagged with ``region`` in the churn log) and recovers at ``end``."""
    if not devices:
        raise ValueError("regional outage needs at least one device")
    events = [
        FaultEvent(time=start, kind=FAIL, device=name, region=region)
        for name in devices
    ]
    if end is not None:
        if end <= start:
            raise ValueError(f"outage window must have end > start, got [{start}, {end})")
        events.extend(
            FaultEvent(time=end, kind=RECOVER, device=name, region=region)
            for name in devices
        )
    return events


def generate_churn(
    device_names: Sequence[str],
    requester: str,
    rate_per_s: float,
    duration_s: float,
    seed: int = 0,
    min_live: int = 2,
) -> List[FaultEvent]:
    """A seeded Poisson stream of fail/recover events at ``rate_per_s``
    events/second over ``[0, duration_s)``.

    The requester never fails (it holds the input data), a device must be
    live to fail and failed to recover, and at least ``min_live`` devices
    stay up.  Whether the placement stays feasible after a failure is
    checked by the runtime when the event applies.  Returns an empty list
    when ``rate_per_s`` is 0; a negative or non-finite rate and a
    non-positive or non-finite duration raise :class:`ValueError`.
    """
    if not 0 < duration_s < math.inf:
        raise ValueError(f"duration_s must be finite and positive, got {duration_s}")
    if not 0 <= rate_per_s < math.inf:
        raise ValueError(f"rate_per_s must be finite and non-negative, got {rate_per_s}")
    if rate_per_s == 0:
        return []
    rng = rng_for("serving-churn", seed)
    live = list(device_names)
    failed: List[str] = []
    events: List[FaultEvent] = []
    now = 0.0
    while True:
        now += float(rng.exponential(1.0 / rate_per_s))
        if now >= duration_s:
            return events
        can_fail = [name for name in live if name != requester] if len(live) > min_live else []
        can_recover = list(failed)
        if not can_fail and not can_recover:
            continue
        # Prefer recovery half the time when both moves are possible so the
        # pool oscillates instead of draining to the floor and staying there.
        if can_fail and (not can_recover or float(rng.uniform()) < 0.5):
            device = can_fail[int(rng.integers(len(can_fail)))]
            live.remove(device)
            failed.append(device)
            events.append(FaultEvent(time=now, kind=FAIL, device=device))
        else:
            device = can_recover[int(rng.integers(len(can_recover)))]
            failed.remove(device)
            live.append(device)
            events.append(FaultEvent(time=now, kind=RECOVER, device=device))


# ======================================================================
# Brownout
# ======================================================================
@dataclass(frozen=True)
class BrownoutPolicy:
    """Backlog-pressure admission tiering: degrade before collapsing.

    A periodic controller (every ``interval_s`` simulated seconds) reads
    cluster *pressure* — queued-but-unstarted service-seconds per live
    compute slot — and moves a shed **level** up or down with hysteresis:
    above ``high_backlog_s`` the level rises by one, at or below
    ``low_backlog_s`` it falls by one.  Level ``L`` sheds arrivals of the
    ``L`` model classes with the smallest SLO slack (deadline minus
    isolated latency on the fresh deployment — the classes most likely to
    miss anyway), rejecting them at admission with a brownout reason.  At
    least one class always stays admitted: the level is capped at
    ``n_models - 1`` (and at ``max_level`` when set), so a brownout tiers
    service down instead of hard-rejecting everything.  Every level change
    is logged as a :class:`~repro.serving.report.BrownoutRecord`.
    """

    interval_s: float = 0.5
    high_backlog_s: float = 2.0
    low_backlog_s: float = 0.5
    max_level: Optional[int] = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.interval_s) or self.interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {self.interval_s}")
        if not math.isfinite(self.high_backlog_s) or self.high_backlog_s <= 0:
            raise ValueError(f"high_backlog_s must be positive, got {self.high_backlog_s}")
        if not math.isfinite(self.low_backlog_s) or self.low_backlog_s < 0:
            raise ValueError(f"low_backlog_s must be non-negative, got {self.low_backlog_s}")
        if self.low_backlog_s >= self.high_backlog_s:
            raise ValueError(
                f"hysteresis requires low_backlog_s < high_backlog_s, got "
                f"{self.low_backlog_s} >= {self.high_backlog_s}"
            )
        if self.max_level is not None and self.max_level < 0:
            raise ValueError(f"max_level must be >= 0, got {self.max_level}")
