"""The client fleet: N emulated phones over M sockets.

Every fleet run drives ``config.num_clients`` *virtual clients* (VCs)
over ``connections`` physical links using the binary codec's channel
tags.  A per-socket fleet is the case ``connections >= num_clients``:
each phone then owns its link, exactly as a real phone owns its
socket.

* virtual client ``i`` rides link ``i % connections`` of whichever
  endpoint it is dialling;
* every join travels as a JOIN tagged with channel ``i``, and the
  server's greeting comes back on that same channel;
* steady state is batch-for-batch: the server's ``PLAN_BATCH``
  covers every seat on the link, the link evaluates each plan
  through that virtual client's *own* display pipeline, and answers
  with one ``REPORT_BATCH``;
* every virtual client keeps its own seeded motion trace, coverage
  evaluator, phone model (:class:`~repro.serve.loadgen._ClientState`),
  think-time and reconnect RNG streams, so per-seat ledgers do not
  depend on how phones are packed onto sockets.

Each phone runs one lifecycle loop — join → serve → lost or moved →
back off → rejoin — and the per-phone behaviours of
:class:`~repro.serve.loadgen.LoadGenConfig` act inside it:

* **think time**: one ``latency_s`` (``slow_latency_s`` for the first
  ``slow_clients``) plus jitter draw per plan; a link's report batch
  leaves once its slowest member's think time and any scripted
  ``delay_report`` have elapsed;
* **churn**: a churning phone says BYE on its own channel after
  ``churn_leave_after_slots``; its link-mates keep going;
* **corrupt_report**: that phone's report goes out as its own
  corrupted frame, the rest of the batch is untouched;
* **crash_client**: the phone's physical link closes without a
  report.  With its own link that is exactly one phone; on a shared
  link every link-mate loses the link too, as behind a crashing
  proxy;
* **reconnect**: a phone that loses its link while holding a resume
  token backs off (:meth:`~repro.serve.loadgen.ReconnectPolicy.backoff_s`)
  and rejoins at the home endpoint with its token, keeping its
  session state; a resume reject ends it ``resume_failed``.

Coordinator redirects are followed at both points they can occur: a
greeting :class:`~repro.serve.protocol.Redirect` re-dials the phone
at the assigned shard, and a mid-run channel-tagged redirect moves
just that phone (with its resume token), leaving its link-mates
undisturbed.
"""

from __future__ import annotations

import asyncio
from dataclasses import replace
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError, TransportError
from repro.faults.injection import FaultInjector, corrupt_frame_bytes
from repro.faults.schedule import (
    CLIENT_KINDS,
    FAULT_CORRUPT_REPORT,
    FAULT_CRASH_CLIENT,
    FAULT_DELAY_REPORT,
)
from repro.serve.admission import REJECT_RESUME
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

#: How a seated phone's session ended: its run is over (END answered
#: or churned), its link died, or a Redirect moved it elsewhere.
_DONE = "done"
_LOST = "lost"
Outcome = Union[str, Redirect]


class _VirtualClient:
    """One emulated phone: identity, per-phone knobs, RNG streams, ledger."""

    def __init__(self, config: LoadGenConfig, index: int) -> None:
        self.index = index
        self.name = f"{config.client_prefix}-{index}"
        self.latency_s = (
            config.slow_latency_s
            if index < config.slow_clients
            else config.latency_s
        )
        self.jitter_s = config.jitter_s
        self.leave_after = (
            config.churn_leave_after_slots
            if index < config.churn_clients
            else 0
        )
        # Streams a phone never draws from are not built.
        self.jitter_rng = (
            np.random.default_rng((config.seed, 1009, index))
            if self.latency_s > 0 or self.jitter_s > 0
            else None
        )
        self.reconnect_rng = (
            np.random.default_rng((config.seed, 1013, index))
            if config.reconnect.enabled
            else None
        )
        self.state: Optional[_ClientState] = None
        self.token = ""
        self.seat = -1
        self.redirects = 0
        self.rejected: Optional[ClientReport] = None
        #: Resolved by the link once the current session ends.
        self.outcome: Optional["asyncio.Future[Outcome]"] = None

    def think_s(self) -> float:
        """This plan's think time (one jitter draw per plan)."""
        if self.jitter_rng is None:
            return 0.0
        return self.latency_s + float(
            self.jitter_rng.uniform(0.0, self.jitter_s)
        )

    def settle(self, outcome: Outcome) -> None:
        if self.outcome is not None and not self.outcome.done():
            self.outcome.set_result(outcome)

    def reject(self, greeting: Reject) -> None:
        end_reason = (
            "resume_failed" if greeting.code == REJECT_RESUME else "rejected"
        )
        self.rejected = self._unserved(end_reason, greeting)

    def report(self) -> ClientReport:
        if self.rejected is not None:
            return self.rejected
        if self.state is None:
            return self._unserved("disconnected")
        return _final_report(self.name, self.state, self.redirects)

    def _unserved(
        self, end_reason: str, reject: Optional[Reject] = None
    ) -> ClientReport:
        """A report with an empty ledger: never seated, or refused."""
        return ClientReport(
            name=self.name,
            seat=self.state.seat if self.state is not None else -1,
            frames=0,
            displayed=0,
            mean_viewed_quality=0.0,
            mean_delay_slots=0.0,
            fps=0.0,
            end_reason=end_reason,
            reject_code=reject.code if reject is not None else "",
            reject_reason=reject.reason if reject is not None else "",
            redirects=self.redirects,
        )


class _MuxLink:
    """One physical connection carrying several virtual clients.

    The dial starts at construction and is shared by every caller
    that asks for the link meanwhile.  A single pump task owns the
    read side: it resolves handshake replies, turns plan frames into
    report batches, and settles virtual clients on their end, move
    and loss.  Joins are serialized under a lock so exactly one
    handshake is outstanding per link, which keeps seat assignment
    deterministic.

    A link is *retired* — closed and forgotten by the fleet — as soon
    as it carries no session after a greeting, BYE or move, because
    that is when the peer closes it; a later join dials afresh
    instead of writing into a closing socket.
    """

    def __init__(self, fleet: "_MuxFleet", key: Tuple[str, int, int]) -> None:
        self.fleet = fleet
        self.key = key
        self.codec = BinaryChannelCodec()
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self.lock = asyncio.Lock()
        self.vcs_by_seat: Dict[int, _VirtualClient] = {}
        self._pending_joins: Dict[
            int, Tuple[_VirtualClient, "asyncio.Future[ServeMessage]"]
        ] = {}
        self._pump_task: Optional["asyncio.Task[None]"] = None
        self.closed = False
        self._dial = asyncio.ensure_future(self._connect())

    async def _connect(self) -> None:
        host, port, _ = self.key
        try:
            self.reader, self.writer = await asyncio.open_connection(host, port)
        except (ConnectionError, OSError):
            self._retire()
            raise
        self._pump_task = asyncio.ensure_future(self._pump())

    async def connected(self) -> None:
        """Wait for the link's one dial (re-raising its failure)."""
        await asyncio.shield(self._dial)

    async def join(self, vc: _VirtualClient) -> Optional[ServeMessage]:
        """Send one join and await its greeting (serialized per link).

        Returns None when the link was retired before the join could
        be sent: nothing reached the peer, so the caller dials again.
        """
        async with self.lock:
            if self.closed or self.writer is None:
                return None
            future: "asyncio.Future[ServeMessage]" = (
                asyncio.get_running_loop().create_future()
            )
            request = JoinRequest(
                client=vc.name, version=PROTOCOL_VERSION, token=vc.token
            )
            self._pending_joins[vc.index] = (vc, future)
            self.writer.write(self.codec.encode(request, channel=vc.index))
            await self.writer.drain()
            greeting = await future
            if not isinstance(greeting, Welcome):
                self._retire_if_idle()
            return greeting

    async def send_ready(self, vc: _VirtualClient) -> None:
        assert self.writer is not None and vc.state is not None
        ready = Ready(pose=pose_to_wire(vc.state.trace[0].as_vector()))
        try:
            self.writer.write(self.codec.encode(ready, channel=vc.seat))
            await self.writer.drain()
        except (ConnectionError, OSError):
            # The phone is seated here: the pump sees the loss and
            # settles it, so it never learns twice.
            pass

    # ------------------------------------------------------------------
    # The read pump
    # ------------------------------------------------------------------
    async def _pump(self) -> None:
        try:
            while self.reader is not None and not self.closed:
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
                    if isinstance(message, TilePlan):
                        plans.append((unit.channel, message))
                    elif isinstance(message, EndOfRun):
                        await self._finish_vc(unit.channel, message)
                    elif (
                        isinstance(message, Redirect)
                        and unit.channel in self.vcs_by_seat
                    ):
                        # Only a shard moves a seated phone; a front
                        # door's redirect answers a join.
                        self._move(unit.channel, message)
                    elif unit.channel in self._pending_joins:
                        self._greet(unit.channel, message)
                if plans:
                    await self._answer_plans(plans)
        except (TransportError, ConnectionError, OSError):
            pass
        finally:
            self._lose()

    def _greet(self, channel: int, message: ServeMessage) -> None:
        vc, future = self._pending_joins.pop(channel)
        if isinstance(message, Welcome):
            # Seat the phone before the next frame is read: a resumed
            # seat's plans may follow its welcome at once.
            vc.seat = message.seat
            vc.outcome = asyncio.get_running_loop().create_future()
            self.vcs_by_seat[vc.seat] = vc
        if not future.done():
            future.set_result(message)

    def _move(self, channel: int, message: Redirect) -> None:
        """Mid-run migration: move exactly this phone; link-mates stay."""
        vc = self.vcs_by_seat.pop(channel, None)
        if vc is not None:
            vc.settle(message)
            self._retire_if_idle()

    async def _finish_vc(self, channel: int, message: EndOfRun) -> None:
        vc = self.vcs_by_seat.pop(channel, None)
        if vc is None:
            return
        if vc.state is not None:
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
        vc.settle(_DONE)
        self._retire_if_idle()

    async def _answer_plans(self, plans: List[Tuple[int, TilePlan]]) -> None:
        """Evaluate one batch of plans and answer with one batch of reports.

        Each (seat, plan) runs through that virtual client's own
        display pipeline; the replies travel as a single
        ``REPORT_BATCH`` frame once the slowest member's think time
        has elapsed.  Scripted client faults act per phone; a crash
        takes the whole link down with it.
        """
        if self.writer is None:
            return
        members: List[Tuple[_VirtualClient, TilePlan]] = []
        for seat, plan in plans:
            vc = self.vcs_by_seat.get(seat)
            if vc is not None and vc.state is not None:
                members.append((vc, plan))
        if not members:
            return
        injector = self.fleet.injector
        faulted = injector.enabled
        if faulted and [
            vc
            for vc, plan in members
            if injector.take(plan.slot, vc.seat, FAULT_CRASH_CLIENT)
        ]:
            # Die mid-slot without a word: no report leaves the link
            # and the socket just closes.
            self._lose()
            return
        wait_s = 0.0
        reports: List[Tuple[int, SlotReport]] = []
        corrupt: List[bytes] = []
        leavers: List[_VirtualClient] = []
        for vc, plan in members:
            state = vc.state
            assert state is not None
            report = _evaluate_plan(
                plan, state.trace, state.coverage, state.phone
            )
            think_s = vc.think_s()
            if faulted:
                delay = injector.take(plan.slot, vc.seat, FAULT_DELAY_REPORT)
                if delay is not None:
                    think_s += delay.duration_s
            wait_s = max(wait_s, think_s)
            if faulted and injector.take(
                plan.slot, vc.seat, FAULT_CORRUPT_REPORT
            ):
                corrupt.append(
                    corrupt_frame_bytes(
                        self.codec.encode(report, channel=vc.seat)
                    )
                )
            else:
                reports.append((vc.seat, report))
            if vc.leave_after and plan.slot + 1 >= vc.leave_after:
                leavers.append(vc)
        if wait_s > 0:
            await asyncio.sleep(wait_s)
        try:
            if reports:
                for frame in self.codec.encode_report_batch(reports):
                    self.writer.write(frame)
            for frame in corrupt:
                self.writer.write(frame)
            for vc in leavers:
                self.writer.write(
                    self.codec.encode(Bye(reason="churn"), channel=vc.seat)
                )
            await self.writer.drain()
        except (TransportError, ConnectionError, OSError):
            pass
        for vc in leavers:
            assert vc.state is not None
            vc.state.end_reason = "churned"
            self.vcs_by_seat.pop(vc.seat, None)
            vc.settle(_DONE)
        if leavers:
            self._retire_if_idle()

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def _retire(self) -> None:
        """Stop joining over this link and close it."""
        if self.closed:
            return
        self.closed = True
        if self.fleet.links.get(self.key) is self:
            del self.fleet.links[self.key]
        if self.writer is not None:
            self.writer.close()

    def _retire_if_idle(self) -> None:
        if not self.vcs_by_seat and not self._pending_joins:
            self._retire()

    def _lose(self) -> None:
        """The link is gone: every phone riding it learns so."""
        self._retire()
        for _, future in self._pending_joins.values():
            if not future.done():
                future.set_exception(TransportError("mux link lost"))
        self._pending_joins.clear()
        for vc in self.vcs_by_seat.values():
            vc.settle(_LOST)
        self.vcs_by_seat.clear()

    async def aclose(self) -> None:
        self._retire()
        tasks = [self._dial]
        if self._pump_task is not None:
            tasks.append(self._pump_task)
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        if self.writer is not None:
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass


class _MuxFleet:
    """All virtual clients of one fleet run."""

    def __init__(self, config: LoadGenConfig, connections: int) -> None:
        self.config = config
        self.connections = connections
        self.vcs = [
            _VirtualClient(config, i) for i in range(config.num_clients)
        ]
        # One timeline of client-side faults for the whole fleet
        # (seats are disjoint, so sharing it is safe).
        self.injector = FaultInjector(
            config.faults.restricted_to(CLIENT_KINDS)
            if config.faults is not None
            else None
        )
        #: Live links by (host, port, link slot).
        self.links: Dict[Tuple[str, int, int], _MuxLink] = {}
        #: Every link this run opened, live or retired, for teardown.
        self.opened: List[_MuxLink] = []

    async def run(self) -> FleetReport:
        tasks: List["asyncio.Task[None]"] = []
        try:
            for vc in self.vcs:
                # Initial joins go one at a time in index order, so
                # seat assignment is deterministic.
                joined = asyncio.Event()
                task = asyncio.ensure_future(self._live(vc, joined))
                tasks.append(task)
                await joined.wait()
                if task.done():
                    task.result()
            await asyncio.gather(*tasks)
        finally:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            for link in self.opened:
                await link.aclose()
        return FleetReport(clients=tuple(vc.report() for vc in self.vcs))

    async def _link_for(self, host: str, port: int, slot: int) -> _MuxLink:
        key = (host, port, slot)
        link = self.links.get(key)
        if link is None:
            link = _MuxLink(self, key)
            self.links[key] = link
            self.opened.append(link)
        await link.connected()
        return link

    async def _handshake(
        self, vc: _VirtualClient, host: str, port: int
    ) -> ServeMessage:
        """Join at ``host:port``; on a welcome, (re)attach the phone."""
        while True:
            link = await self._link_for(
                host, port, vc.index % self.connections
            )
            greeting = await link.join(vc)
            if greeting is not None:
                break
        if isinstance(greeting, Welcome):
            vc.token = greeting.resume_token or vc.token
            if vc.state is None:
                vc.state = _ClientState(self.config, greeting)
                await link.send_ready(vc)
            elif greeting.resumed:
                vc.state.resumes += 1
        elif not isinstance(greeting, (Redirect, Reject)):
            raise TransportError(
                f"expected welcome, redirect, or reject, got "
                f"{type(greeting).__name__}"
            )
        return greeting

    async def _live(self, vc: _VirtualClient, joined: asyncio.Event) -> None:
        """One phone's life: join → serve → lost/moved → back off → rejoin.

        ``joined`` is set once the first handshake settles.  A phone
        that was never admitted and cannot reach the server raises
        (the server is down, not the phone).  A lost link is healed
        only with a resume token and an enabled reconnect policy;
        redirects are followed at once, uncharged, up to
        :data:`~repro.serve.loadgen.MAX_REDIRECTS`.
        """
        policy = self.config.reconnect
        # A lost phone falls back to the configured ("home") endpoint
        # — in a sharded cluster that is the coordinator, which
        # re-routes it even if its shard just died.
        host, port = self.config.host, self.config.port
        attempts = 0
        try:
            while True:
                if attempts:
                    assert vc.reconnect_rng is not None
                    await asyncio.sleep(
                        policy.backoff_s(attempts, vc.reconnect_rng)
                    )
                outcome: Outcome
                try:
                    greeting = await self._handshake(vc, host, port)
                except (TransportError, ConnectionError, OSError):
                    if vc.state is None:
                        raise
                    outcome = _LOST
                else:
                    if isinstance(greeting, Reject):
                        vc.reject(greeting)
                        return
                    if isinstance(greeting, Welcome):
                        if greeting.resumed:
                            attempts = 0
                        joined.set()
                        assert vc.outcome is not None
                        outcome = await vc.outcome
                    else:
                        outcome = greeting
                if isinstance(outcome, Redirect):
                    vc.redirects += 1
                    if vc.redirects > MAX_REDIRECTS:
                        if vc.state is None:
                            raise TransportError(
                                f"{vc.name}: redirected {vc.redirects} "
                                "times without ever being admitted"
                            )
                        vc.state.end_reason = "redirect_loop"
                        return
                    host, port = outcome.host, outcome.port
                    continue
                if outcome == _DONE:
                    return
                host, port = self.config.host, self.config.port
                if not (policy.enabled and vc.token):
                    return
                attempts += 1
                if attempts > policy.max_attempts:
                    return
        finally:
            joined.set()


async def run_mux_fleet(
    config: LoadGenConfig, connections: int = 4
) -> FleetReport:
    """Drive ``config.num_clients`` phones over ``connections`` sockets.

    ``connections >= num_clients`` gives every phone its own socket;
    fewer packs them onto shared links.  Raises
    :class:`ConnectionError`/:class:`OSError` when a phone that was
    never admitted cannot reach the server.
    """
    if connections < 1:
        raise ConfigurationError(
            f"connections must be >= 1, got {connections}"
        )
    if config.port == 0:
        raise ConfigurationError("fleet needs a concrete server port")
    fleet = _MuxFleet(config, connections)
    return await fleet.run()


async def run_serve_and_mux_fleet(
    serve_config: ServeConfig,
    fleet_config: LoadGenConfig,
    connections: int = 4,
) -> Tuple[ServeResult, FleetReport]:
    """Run a server and its fleet in-process (tests, benches).

    Starts the server on its configured endpoint, points the fleet at
    the bound port, and returns both end-of-run views.
    """
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
