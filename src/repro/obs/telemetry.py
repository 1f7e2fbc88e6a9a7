"""Battery telemetry: columnar frames, the sampling policy, shared emission.

Battery sensor telemetry is the one event stream whose volume scales
with the fleet. It has one wire form, the columnar
:class:`~repro.obs.events.BatteryFrameEvent`: one event per step for the
whole fleet, so tracing costs O(steps) events rather than
O(nodes x steps), and the fleet stepper keeps its vectorization win with
tracing on.

``TelemetryPolicy`` / :func:`parse_telemetry`
    Which steps and nodes reach the trace, selected with ``--telemetry``:

    - ``full`` — every node every step (the default);
    - ``sampled:N[:node1,node2]`` — every N-th step, optionally for a
      node subset. Emitted frames carry ``dt = N x step_dt`` so the time
      integral is preserved.

:class:`FrameEncoder` / :class:`FrameDecoder`
    The columnar codec: SoC and current quantized to integers (x1e8 /
    x1e6) and delta-encoded frame-over-frame; the node roster rides only
    on a run's first frame. A frame decodes back into the per-node
    tracker updates (within the quantum), so ``FleetHealthModel`` replay
    keeps its 1e-6 contract vs the engine.

``TELEMETRY`` (:class:`BatteryTelemetry`)
    The singleton both steppers publish through: ``Node.observe_battery``
    calls :meth:`~BatteryTelemetry.record_sample` per node (with a
    :meth:`~BatteryTelemetry.flush_step` from the power path at step
    end), the fleet kernel calls
    :meth:`~BatteryTelemetry.record_fleet_step` once per step with the
    state arrays. Both end in the same encoder, so the two steppers
    write identical frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.bus import BUS
from repro.obs.events import BatteryFrameEvent

__all__ = [
    "SCHEMA_VERSION",
    "SOC_SCALE",
    "CUR_SCALE",
    "TelemetryPolicy",
    "parse_telemetry",
    "FrameEncoder",
    "FrameDecoder",
    "BatteryTelemetry",
    "TELEMETRY",
]

#: Trace wire-schema version stamped into ``trace_meta`` headers.
#: Version 2 introduced frames and the header itself; version 3 retired
#: the per-node ``battery_sample`` and ``fleet_summary`` kinds, leaving
#: ``battery_frame`` the only battery telemetry; version 4 retired the
#: per-cell health rollup kind of campaign traces. ``validate_trace``
#: rejects mismatched versions loudly.
SCHEMA_VERSION = 4

#: Quantization scales for frame columns. SoC lives in [0, 1] so 1e8
#: gives a 1e-8 quantum (5e-9 worst-case round error); currents are
#: O(10 A) so 1e6 gives a 1e-6 A quantum. Both are far inside the 1e-6
#: health-replay tolerance.
SOC_SCALE = 1e8
CUR_SCALE = 1e6


@dataclass(frozen=True)
class TelemetryPolicy:
    """Which steps and nodes a traced run's battery frames cover.

    The default is every node at every step (``full``).
    """

    every: int = 1  # emit every N-th step
    nodes: Optional[Tuple[str, ...]] = None  # node subset; None = all

    def spec(self) -> str:
        """Canonical spec string (round-trips through
        :func:`parse_telemetry`); recorded in ``trace_meta`` headers."""
        if self.every == 1 and not self.nodes:
            return "full"
        out = f"sampled:{self.every}"
        if self.nodes:
            out += ":" + ",".join(self.nodes)
        return out


def parse_telemetry(spec: str) -> TelemetryPolicy:
    """Parse a ``--telemetry`` spec string into a :class:`TelemetryPolicy`.

    Grammar: ``full`` | ``sampled:N[:node1,node2,...]``.
    """
    text = spec.strip()
    head, _, rest = text.partition(":")
    head = head.strip().lower()
    if head == "full":
        if rest:
            raise ConfigurationError(f"telemetry tier {head!r} takes no arguments: {spec!r}")
        return TelemetryPolicy()
    if head == "sampled":
        if not rest:
            raise ConfigurationError(f"sampled telemetry needs a period: {spec!r} (e.g. sampled:15)")
        period, _, node_part = rest.partition(":")
        try:
            every = int(period)
        except ValueError:
            raise ConfigurationError(f"sampled period must be an integer: {spec!r}") from None
        if every < 1:
            raise ConfigurationError(f"sampled period must be >= 1: {spec!r}")
        nodes: Optional[Tuple[str, ...]] = None
        if node_part:
            nodes = tuple(n.strip() for n in node_part.split(",") if n.strip())
            if not nodes:
                raise ConfigurationError(f"empty node subset in telemetry spec: {spec!r}")
        return TelemetryPolicy(every=every, nodes=nodes)
    raise ConfigurationError(
        f"unknown telemetry spec {spec!r}; expected full or sampled:N[:nodes]"
    )


def quantize(values: Sequence[float], scale: float) -> np.ndarray:
    """``int(round(v * scale))`` per value, as int64. ``np.rint`` rounds
    half to even like builtin ``round``, so the two agree exactly."""
    return np.rint(np.asarray(values, dtype=float) * scale).astype(np.int64)


class FrameEncoder:
    """Columnar encoder for one run's battery frames.

    Holds the quantized previous-frame columns so each frame stores only
    deltas; the first frame (``seq == 0``) deltas against zero and
    carries the node roster.
    """

    __slots__ = ("names", "n", "seq", "_prev_soc", "_prev_cur")

    def __init__(self, names: Sequence[str]) -> None:
        self.names = list(names)
        self.n = len(self.names)
        self.seq = 0
        self._prev_soc = np.zeros(self.n, dtype=np.int64)
        self._prev_cur = np.zeros(self.n, dtype=np.int64)

    def encode(
        self, t: float, dt: float, soc: Sequence[float], current: Sequence[float]
    ) -> BatteryFrameEvent:
        soc_q = quantize(soc, SOC_SCALE)
        cur_q = quantize(current, CUR_SCALE)
        soc_col = ",".join(map(str, (soc_q - self._prev_soc).tolist()))
        cur_col = ",".join(map(str, (cur_q - self._prev_cur).tolist()))
        self._prev_soc = soc_q
        self._prev_cur = cur_q
        event = BatteryFrameEvent(
            t=t,
            dt=dt,
            n=self.n,
            seq=self.seq,
            nodes=",".join(self.names) if self.seq == 0 else "",
            soc=soc_col,
            cur=cur_col,
        )
        self.seq += 1
        return event


class FrameDecoder:
    """Streaming decoder: feed frames in trace order, get readings back.

    Stateful by necessity (delta chains); call :meth:`reset` at every
    ``run_start``/``trace_meta`` boundary so runs decode independently.
    """

    __slots__ = ("names", "_prev_soc", "_prev_cur")

    def __init__(self) -> None:
        self.names: Optional[List[str]] = None
        self._prev_soc: List[int] = []
        self._prev_cur: List[int] = []

    def reset(self) -> None:
        self.names = None
        self._prev_soc = []
        self._prev_cur = []

    def decode(self, frame: BatteryFrameEvent) -> List[Tuple[str, float, float]]:
        """Expand one frame into ``(node, soc, current_a)`` triples."""
        if frame.nodes:
            self.names = frame.nodes.split(",")
            self._prev_soc = [0] * len(self.names)
            self._prev_cur = [0] * len(self.names)
        if self.names is None:
            raise ConfigurationError(
                "battery_frame before any roster-carrying frame (sliced trace?)"
            )
        if frame.n != len(self.names):
            raise ConfigurationError(
                f"battery_frame n={frame.n} does not match roster of {len(self.names)} nodes"
            )
        soc_q = self._apply(self._prev_soc, frame.soc, frame.n, "soc")
        cur_q = self._apply(self._prev_cur, frame.cur, frame.n, "cur")
        self._prev_soc = soc_q
        self._prev_cur = cur_q
        return [
            (name, sq / SOC_SCALE, cq / CUR_SCALE)
            for name, sq, cq in zip(self.names, soc_q, cur_q)
        ]

    @staticmethod
    def _apply(prev: List[int], column: str, n: int, label: str) -> List[int]:
        try:
            deltas = [int(x) for x in column.split(",")] if column else []
        except ValueError:
            raise ConfigurationError(f"battery_frame {label} column is not integer deltas") from None
        if len(deltas) != n:
            raise ConfigurationError(
                f"battery_frame {label} column has {len(deltas)} entries, expected {n}"
            )
        return [p + d for p, d in zip(prev, deltas)]


class BatteryTelemetry:
    """Process-wide battery telemetry publisher (singleton ``TELEMETRY``).

    Both steppers route their per-step battery observations here; the
    active :class:`TelemetryPolicy` decides which steps and nodes reach
    the bus. Per-run state (the frame delta chain, the step buffer) is
    reset by :meth:`start_run`.
    """

    def __init__(self) -> None:
        self.policy = TelemetryPolicy()
        self._reset_run()

    # -- lifecycle ----------------------------------------------------

    def _reset_run(self) -> None:
        self._encoder: Optional[FrameEncoder] = None
        self._node_set = frozenset(self.policy.nodes) if self.policy.nodes else None
        self._sel_idx = None  # fleet-path subset indices (lazy)
        self._sel_names: Optional[List[str]] = None
        self._clear_buffer()

    def _clear_buffer(self) -> None:
        self._buf_names: List[str] = []
        self._buf_soc: List[float] = []
        self._buf_cur: List[float] = []
        self._buf_t = 0.0
        self._buf_dt = 0.0

    def set_policy(self, policy) -> None:
        """Install a policy (a :class:`TelemetryPolicy` or a spec string)."""
        if isinstance(policy, str):
            policy = parse_telemetry(policy)
        self.policy = policy
        self._reset_run()

    def start_run(self) -> None:
        """Engine hook at run begin: drop stale per-run state so each
        run's first frame re-carries the roster and deltas re-anchor."""
        self._reset_run()

    def end_run(self) -> None:
        """Engine hook at run end: flush any buffered partial step."""
        self.flush_step()

    # -- per-node (reference stepper) path ----------------------------

    def record_sample(
        self, t: float, node: str, soc: float, current_a: float, dt: float
    ) -> None:
        """Buffer one node's sensor poll (reference power paths) for the
        step's frame, which :meth:`flush_step` emits."""
        if self._node_set is not None and node not in self._node_set:
            return
        if not self._step_selected(t, dt):
            return
        self._buf_t = t
        self._buf_dt = dt * self.policy.every
        self._buf_names.append(node)
        self._buf_soc.append(soc)
        self._buf_cur.append(current_a)

    def flush_step(self) -> None:
        """End-of-step hook for the per-node paths: emit the buffered
        frame, if the step produced one."""
        if not self._buf_names:
            return
        self._emit_frame(
            self._buf_t, self._buf_dt, self._buf_names, self._buf_soc, self._buf_cur
        )
        self._clear_buffer()

    # -- fleet (vectorized stepper) path ------------------------------

    def record_fleet_step(self, t: float, dt: float, fleet) -> None:
        """Publish one step of the whole fleet from the state arrays.

        One call per step and no per-node Python loop beyond the
        encoder's column quantization.
        """
        if not self._step_selected(t, dt):
            return
        names, soc, cur = self._fleet_view(fleet)
        self._emit_frame(t, dt * self.policy.every, names, soc, cur)

    def _fleet_view(self, fleet):
        """(names, soc list, current list) for the selected node subset.

        ``.tolist()`` round-trips the float64 arrays bit-exactly, so the
        fleet stepper's frames are identical to the reference stepper's.
        """
        if self._node_set is None:
            return fleet.node_names, fleet.soc.tolist(), fleet.last_current.tolist()
        if self._sel_idx is None or self._sel_names is None:
            self._sel_idx = [
                i for i, name in enumerate(fleet.node_names) if name in self._node_set
            ]
            self._sel_names = [fleet.node_names[i] for i in self._sel_idx]
        soc = fleet.soc
        cur = fleet.last_current
        return (
            self._sel_names,
            [float(soc[i]) for i in self._sel_idx],
            [float(cur[i]) for i in self._sel_idx],
        )

    # -- shared internals ---------------------------------------------

    def _step_selected(self, t: float, dt: float) -> bool:
        """Stateless every-N gating, identical across steppers.

        Uses the step ordinal derived from ``t``/``dt`` (both steppers
        present the same clock), keeping every N-th step and dropping a
        trailing partial window.
        """
        every = self.policy.every
        if every <= 1:
            return True
        return (int(round(t / dt)) + 1) % every == 0

    def _emit_frame(self, t, dt, names, soc, cur) -> None:
        encoder = self._encoder
        if encoder is None or encoder.names != names:
            encoder = self._encoder = FrameEncoder(names)
        BUS.emit(encoder.encode(t, dt, soc, cur))


#: Process-wide singleton both steppers publish through.
TELEMETRY = BatteryTelemetry()
