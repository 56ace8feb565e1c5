"""Multiplexed load generation: many virtual clients, few sockets.

The real-socket fleet (:mod:`repro.serve.loadgen`) opens one TCP
connection per client, which caps how many clients one box can
drive long before the server's slot pipeline is stressed.  This
module multiplexes hundreds of *virtual clients* over a handful of
physical connections using the binary codec's channel tags:

* virtual client ``i`` rides link ``i % connections``;
* every join travels as a JOIN tagged with channel ``i``, and the
  server's greeting comes back on that same channel;
* steady state is batch-for-batch: the server's ``PLAN_BATCH``
  covers every seat on the link, the link evaluates each plan
  through that virtual client's *own* display pipeline, and answers
  with one ``REPORT_BATCH`` — paced report batching with per-client
  latency/QoE ledgers kept fully independent;
* every virtual client keeps its own seeded motion trace, coverage
  evaluator, and phone model (the same
  :class:`~repro.serve.loadgen._ClientState` the real-socket fleet
  uses), so a mux run is comparable ledger-for-ledger with a
  real-socket run of the same seed.

Coordinator redirects are handled at both points they can occur: a
greeting :class:`~repro.serve.protocol.Redirect` re-dials the link's
virtual client at the assigned shard, and a mid-run channel-tagged
redirect re-places just that virtual client (with its resume token)
on a link to the target shard, leaving its link-mates undisturbed.
"""

from __future__ import annotations

import asyncio
from dataclasses import replace
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import ConfigurationError, TransportError
from repro.serve.config import PROTOCOL_VERSION, ServeConfig
from repro.serve.loadgen import (
    MAX_REDIRECTS,
    ClientReport,
    FleetReport,
    LoadGenConfig,
    _ClientState,
    _evaluate_plan,
    _final_report,
)
from repro.serve.protocol import (
    Bye,
    EndOfRun,
    JoinRequest,
    Ready,
    Redirect,
    Reject,
    ServeMessage,
    SlotReport,
    TilePlan,
    Welcome,
    pose_to_wire,
)
from repro.serve.protocol2 import BinaryChannelCodec, read_units
from repro.serve.server import ServeResult, VrServeServer


class _VirtualClient:
    """One multiplexed phone: identity, ledger state, completion."""

    def __init__(self, index: int, name: str) -> None:
        self.index = index
        self.name = name
        self.state: Optional[_ClientState] = None
        self.token = ""
        self.seat = -1
        self.redirects = 0
        self.rejected: Optional[ClientReport] = None
        self.done = asyncio.Event()

    def finish(self, reason: Optional[str] = None) -> None:
        if self.done.is_set():
            return
        if reason is not None and self.state is not None:
            self.state.end_reason = reason
        self.done.set()

    def report(self) -> ClientReport:
        if self.rejected is not None:
            return self.rejected
        if self.state is None:
            return ClientReport(
                name=self.name,
                seat=-1,
                frames=0,
                displayed=0,
                mean_viewed_quality=0.0,
                mean_delay_slots=0.0,
                fps=0.0,
                end_reason="disconnected",
                redirects=self.redirects,
            )
        return _final_report(self.name, self.state, self.redirects)


class _MuxLink:
    """One physical connection carrying several virtual clients.

    A single pump task owns the read side: it resolves handshake
    replies, turns plan frames into report batches, and completes
    virtual clients on their end frames.  Joins are serialized under
    a lock so exactly one handshake is outstanding per link, which
    keeps seat assignment deterministic.
    """

    def __init__(self, fleet: "_MuxFleet", host: str, port: int) -> None:
        self.fleet = fleet
        self.host = host
        self.port = port
        self.codec = BinaryChannelCodec()
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self.lock = asyncio.Lock()
        self.vcs_by_seat: Dict[int, _VirtualClient] = {}
        self._pending_joins: Dict[int, "asyncio.Future[ServeMessage]"] = {}
        self._pump_task: Optional["asyncio.Task[None]"] = None
        self.closed = False

    async def connect(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port
        )
        self._pump_task = asyncio.ensure_future(self._pump())

    async def join(self, vc: _VirtualClient) -> ServeMessage:
        """Send one join and await its greeting (serialized per link)."""
        async with self.lock:
            if self.closed or self.writer is None:
                raise TransportError("mux link is closed")
            future: "asyncio.Future[ServeMessage]" = (
                asyncio.get_running_loop().create_future()
            )
            request = JoinRequest(
                client=vc.name, version=PROTOCOL_VERSION, token=vc.token
            )
            self._pending_joins[vc.index] = future
            self.writer.write(self.codec.encode(request, channel=vc.index))
            await self.writer.drain()
            return await future

    async def send_ready(self, vc: _VirtualClient) -> None:
        if self.writer is None:
            raise TransportError("mux link is closed")
        assert vc.state is not None
        ready = Ready(pose=pose_to_wire(vc.state.trace[0].as_vector()))
        self.writer.write(self.codec.encode(ready, channel=vc.seat))
        await self.writer.drain()

    # ------------------------------------------------------------------
    # The read pump
    # ------------------------------------------------------------------
    async def _pump(self) -> None:
        try:
            while self.reader is not None:
                units = await read_units(self.reader, self.codec)
                if units is None:
                    break
                plans: List[Tuple[int, TilePlan]] = []
                for unit in units:
                    message = unit.message
                    if message is None:
                        # A corrupt frame from the server: that slot
                        # is lost for whichever seat it addressed, the
                        # link is not.
                        continue
                    if isinstance(message, (Welcome, Reject)):
                        self._resolve_join(unit.channel, message)
                    elif isinstance(message, Redirect):
                        self._handle_redirect(unit.channel, message)
                    elif isinstance(message, TilePlan):
                        plans.append((unit.channel, message))
                    elif isinstance(message, EndOfRun):
                        await self._finish_vc(unit.channel, message)
                if plans:
                    await self._answer_plans(plans)
        except (TransportError, ConnectionError, OSError):
            pass
        finally:
            self._fail_all("disconnected")

    def _resolve_join(self, channel: int, message: ServeMessage) -> None:
        future = self._pending_joins.pop(channel, None)
        if future is not None and not future.done():
            future.set_result(message)

    def _handle_redirect(self, channel: int, message: Redirect) -> None:
        future = self._pending_joins.pop(channel, None)
        if future is not None and not future.done():
            future.set_result(message)
            return
        # Mid-run migration: move exactly this virtual client (its
        # resume token travels with it); link-mates stay put.
        vc = self.vcs_by_seat.pop(channel, None)
        if vc is not None:
            vc.redirects += 1
            self.fleet.replace_vc(vc, message.host, message.port)

    async def _finish_vc(self, channel: int, message: EndOfRun) -> None:
        vc = self.vcs_by_seat.pop(channel, None)
        if vc is None or vc.state is None:
            return
        vc.state.end_reason = message.reason
        vc.state.server_summary = dict(message.summary)
        if self.writer is not None:
            try:
                self.writer.write(
                    self.codec.encode(Bye(reason="complete"), channel=vc.seat)
                )
                await self.writer.drain()
            except (TransportError, ConnectionError, OSError):
                pass
        vc.finish()

    async def _answer_plans(self, plans: List[Tuple[int, TilePlan]]) -> None:
        """Evaluate one batch of plans and answer with one batch of reports.

        Each (seat, plan) runs through that virtual client's own
        display pipeline; the replies travel as a single
        ``REPORT_BATCH`` frame.
        """
        if self.writer is None:
            return
        reports: List[Tuple[int, SlotReport]] = []
        for seat, plan in plans:
            vc = self.vcs_by_seat.get(seat)
            if vc is None or vc.state is None:
                continue
            reports.append(
                (
                    vc.seat,
                    _evaluate_plan(
                        plan, vc.state.trace, vc.state.coverage,
                        vc.state.phone,
                    ),
                )
            )
        if not reports:
            return
        if self.fleet.config.latency_s > 0:
            await asyncio.sleep(self.fleet.config.latency_s)
        try:
            for frame in self.codec.encode_report_batch(reports):
                self.writer.write(frame)
            await self.writer.drain()
        except (TransportError, ConnectionError, OSError):
            pass

    def _fail_all(self, reason: str) -> None:
        self.closed = True
        for future in list(self._pending_joins.values()):
            if not future.done():
                future.set_exception(TransportError("mux link lost"))
        self._pending_joins.clear()
        for vc in list(self.vcs_by_seat.values()):
            vc.finish(reason)
        self.vcs_by_seat.clear()

    async def aclose(self) -> None:
        self.closed = True
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        if self._pump_task is not None:
            self._pump_task.cancel()
            await asyncio.gather(self._pump_task, return_exceptions=True)


class _MuxFleet:
    """All virtual clients of one multiplexed run."""

    def __init__(self, config: LoadGenConfig, connections: int) -> None:
        self.config = config
        self.connections = connections
        self.vcs = [
            _VirtualClient(i, f"{config.client_prefix}-{i}")
            for i in range(config.num_clients)
        ]
        self.links: Dict[Tuple[str, int, int], _MuxLink] = {}
        self._rejoin_tasks: Set["asyncio.Task[None]"] = set()

    async def run(self) -> FleetReport:
        try:
            for vc in self.vcs:
                await self._join(vc, self.config.host, self.config.port)
            await asyncio.gather(*(vc.done.wait() for vc in self.vcs))
        finally:
            if self._rejoin_tasks:
                await asyncio.gather(
                    *self._rejoin_tasks, return_exceptions=True
                )
            for link in list(self.links.values()):
                await link.aclose()
        return FleetReport(clients=tuple(vc.report() for vc in self.vcs))

    def replace_vc(self, vc: _VirtualClient, host: str, port: int) -> None:
        """Re-place a redirected virtual client on its target shard."""
        task = asyncio.ensure_future(self._join(vc, host, port))
        self._rejoin_tasks.add(task)
        task.add_done_callback(self._rejoin_tasks.discard)

    async def _link_for(self, host: str, port: int, slot: int) -> _MuxLink:
        key = (host, port, slot)
        link = self.links.get(key)
        if link is None or link.closed:
            link = _MuxLink(self, host, port)
            await link.connect()
            self.links[key] = link
        return link

    async def _join(self, vc: _VirtualClient, host: str, port: int) -> None:
        for _ in range(MAX_REDIRECTS + 1):
            try:
                link = await self._link_for(
                    host, port, vc.index % self.connections
                )
                greeting = await link.join(vc)
            except (TransportError, ConnectionError, OSError):
                vc.finish("disconnected")
                return
            if isinstance(greeting, Redirect):
                # A front-door coordinator answers the join with the
                # assigned shard (and closes its connection); follow.
                vc.redirects += 1
                host, port = greeting.host, greeting.port
                continue
            if isinstance(greeting, Reject):
                vc.rejected = ClientReport(
                    name=vc.name,
                    seat=vc.seat,
                    frames=0,
                    displayed=0,
                    mean_viewed_quality=0.0,
                    mean_delay_slots=0.0,
                    fps=0.0,
                    end_reason="rejected",
                    reject_code=greeting.code,
                    reject_reason=greeting.reason,
                    redirects=vc.redirects,
                )
                vc.finish()
                return
            if not isinstance(greeting, Welcome):
                raise TransportError(
                    f"expected welcome, redirect, or reject, got "
                    f"{type(greeting).__name__}"
                )
            vc.token = greeting.resume_token or vc.token
            vc.seat = greeting.seat
            fresh = vc.state is None
            if fresh:
                vc.state = _ClientState(self.config, greeting)
            else:
                assert vc.state is not None
                vc.state.resumes += 1
            link.vcs_by_seat[vc.seat] = vc
            if fresh:
                await link.send_ready(vc)
            return
        vc.finish("redirect_loop")


async def run_mux_fleet(
    config: LoadGenConfig, connections: int = 4
) -> FleetReport:
    """Drive ``config.num_clients`` virtual clients over a few sockets.

    The knobs the real-socket fleet uses to shape *individual* client
    behaviour (slow clients, churn, scripted faults, reconnection) do
    not apply to multiplexed virtual clients and are rejected rather
    than silently ignored.
    """
    if connections < 1:
        raise ConfigurationError(
            f"connections must be >= 1, got {connections}"
        )
    if config.port == 0:
        raise ConfigurationError("fleet needs a concrete server port")
    if (
        config.faults is not None
        or config.slow_clients
        or config.churn_clients
        or config.reconnect.enabled
    ):
        raise ConfigurationError(
            "mux mode does not support per-client faults, slow clients, "
            "churn, or reconnect policies"
        )
    fleet = _MuxFleet(config, connections)
    return await fleet.run()


async def run_serve_and_mux_fleet(
    serve_config: ServeConfig,
    fleet_config: LoadGenConfig,
    connections: int = 4,
) -> Tuple[ServeResult, FleetReport]:
    """Run a server and a multiplexed fleet in-process (tests, benches)."""
    server = VrServeServer(serve_config)
    await server.start()
    server_task = asyncio.ensure_future(server.run())
    try:
        fleet = await run_mux_fleet(
            replace(fleet_config, port=server.port), connections
        )
        result = await server_task
    finally:
        if not server_task.done():
            server_task.cancel()
            await asyncio.gather(server_task, return_exceptions=True)
    return result, fleet
