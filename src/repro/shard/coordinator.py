"""The shard coordinator: one front door over N slot-loop shards.

The coordinator owns the cluster's listening endpoint.  A joining
client connects there, is routed by the seeded
:class:`~repro.shard.router.SessionRouter` (stable hash + override
table, rebalanced on join), and receives a
:class:`~repro.serve.protocol.Redirect` to its shard's real port —
the coordinator never proxies frames, it only hands out addresses.
Readiness is a cluster property: every shard's slot loop is released
only once ``expect_clients`` sessions are ready across the whole
cluster, so a multi-shard lockstep run starts all its timelines from
the same gate.

Live migration runs at each shard's deterministic migration point —
the :attr:`~repro.serve.slotloop.SlotLoop.slot_hook`, after the
previous slot's reports are folded and before the next plan exists.
The hook is synchronous, so a whole handoff (capture blob → install
on target → redirect the client) happens atomically between slots:
*ordered handoffs*, which is what makes a scripted ``shard_kill``
produce the same migration timeline every run.  A scripted
``migration_stall`` delays only the client-facing redirect; the slot
loops never wait on it — the target shard's resume barrier absorbs
the client's late arrival.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.errors import ConfigurationError, TransportError
from repro.faults.schedule import (
    FAULT_MIGRATION_STALL,
    FAULT_SHARD_KILL,
    FaultEvent,
)
from repro.obs.buildinfo import config_fingerprint, register_build_info
from repro.obs.cluster import COORDINATOR_SHARD, merge_registries
from repro.obs.flight import (
    TRIGGER_MIGRATION_STALL,
    TRIGGER_SHARD_KILL,
    TRIGGER_SHARD_RESPAWN,
)
from repro.obs.http import ObsHttpServer
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import Span
from repro.obs.tracer import Tracer
from repro.serve.loadgen import FleetReport, LoadGenConfig
from repro.serve.mux import run_mux_fleet
from repro.serve.protocol import JoinRequest, Redirect
from repro.serve.protocol2 import BinaryChannelCodec, read_units
from repro.serve.server import ServeResult, VrServeServer
from repro.serve.sessions import Session
from repro.shard.config import ShardClusterConfig, derive_trace_path
from repro.shard.handoff import capture_seat, install_seat
from repro.shard.router import SessionRouter

#: Redirect reasons, fixed vocabulary so tests can assert on them.
REDIRECT_ASSIGNED = "assigned"
REDIRECT_SHARD_KILL = "shard_kill"
REDIRECT_REBALANCE = "rebalance"


@dataclass(frozen=True)
class ClusterResult:
    """Outcome of one cluster run.

    ``shards`` holds each shard's :class:`~repro.serve.server.
    ServeResult` in shard order; ``restarted`` any runs served by
    supervisor-respawned shards.  The aggregate figures treat the
    cluster as one deployment: slots and deadline hits sum across
    shards, and ``missed_reports`` is the cluster's lost-report count
    — the number the migration chaos tests pin to zero.
    """

    port: int
    shards: Tuple[ServeResult, ...]
    restarted: Tuple[ServeResult, ...] = ()

    def _all(self) -> Tuple[ServeResult, ...]:
        return self.shards + self.restarted

    @property
    def total_slots(self) -> int:
        return sum(r.metrics.slots for r in self._all())

    @property
    def deadline_hit_rate(self) -> float:
        slots = self.total_slots
        hits = sum(r.metrics.deadline_hits for r in self._all())
        return hits / slots if slots else 0.0

    @property
    def missed_reports(self) -> int:
        return sum(r.metrics.missed_reports for r in self._all())

    @property
    def migrations(self) -> int:
        return sum(r.metrics.migrations_in for r in self._all())

    def summary(self) -> Dict[str, object]:
        """JSON-ready cluster view with per-shard labelled summaries."""
        shards: List[Dict[str, object]] = []
        for index, result in enumerate(self.shards):
            entry: Dict[str, object] = {"shard": index}
            entry.update(result.metrics.summary())
            shards.append(entry)
        for result in self.restarted:
            entry = {"shard": result.port, "restarted": True}
            entry.update(result.metrics.summary())
            shards.append(entry)
        return {
            "num_shards": len(self.shards),
            "total_slots": self.total_slots,
            "deadline_hit_rate": self.deadline_hit_rate,
            "missed_reports": self.missed_reports,
            "migrations": self.migrations,
            "shards": shards,
        }


class ShardCoordinator:
    """Builds, gates, and migrates a cluster of ``VrServeServer``s."""

    def __init__(self, cluster: ShardClusterConfig) -> None:
        self.cluster = cluster
        self.router = SessionRouter(
            cluster.base.experiment.seed, cluster.num_shards
        )
        self.servers: List[VrServeServer] = [
            VrServeServer(cluster.shard_config(index))
            for index in range(cluster.num_shards)
        ]
        self._alive: List[bool] = [True] * cluster.num_shards
        #: Earliest scripted kill slot per shard index.
        self._kill_slot: Dict[int, int] = {}
        #: Scripted redirect stalls per shard, earliest first.
        self._stalls: Dict[int, List[FaultEvent]] = {}
        if cluster.faults is not None:
            for event in cluster.faults.events:
                if event.kind == FAULT_SHARD_KILL:
                    current = self._kill_slot.get(event.seat)
                    if current is None or event.slot < current:
                        self._kill_slot[event.seat] = event.slot
                elif event.kind == FAULT_MIGRATION_STALL:
                    self._stalls.setdefault(event.seat, []).append(event)
        #: Queued rebalance migrations: source shard -> [(client, target)].
        self._moves: Dict[int, List[Tuple[str, int]]] = {}
        #: Clients redirected but not yet seen admitted, so concurrent
        #: joins are load-balanced against reserved seats, not just
        #: the (lagging) live occupancy.
        self._pending_routes: Dict[str, int] = {}
        self._listener: Optional[asyncio.AbstractServer] = None
        self._bound_port = 0
        self._front_tasks: Set["asyncio.Task[None]"] = set()
        self._redirect_tasks: Set["asyncio.Task[None]"] = set()
        #: Cluster-level observability: a coordinator-local registry
        #: (request counter, build info, migration accounting) merged
        #: with every shard's registry per scrape.
        self.obs_registry = MetricsRegistry()
        register_build_info(
            self.obs_registry,
            shard=-1,
            config_hash=config_fingerprint(cluster),
        )
        self._migrations_recorded = self.obs_registry.counter_family(
            "repro_cluster_migrations_total",
            "Sessions moved between shards, by redirect reason",
            ("reason",),
        )
        #: Supervisor restart state surfaced by the cluster /healthz.
        self.supervisor_restarts = 0
        self.respawned_shards: List[int] = []
        self._migration_seq = 0
        self._trace: Optional[Tracer] = None
        base_obs = cluster.base.obs
        if base_obs.enabled and base_obs.trace_path is not None:
            self._trace = Tracer(
                path=derive_trace_path(base_obs.trace_path, "coordinator"),
                sample_every=1,
                registry=self.obs_registry,
            )
        self._http: Optional[ObsHttpServer] = None
        if cluster.metrics_port is not None:
            self._http = ObsHttpServer(
                self.obs_registry,
                health_fn=self.health,
                host=cluster.metrics_host,
                port=cluster.metrics_port,
                registry_fn=self.merged_registry,
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The coordinator's bound front-door port."""
        if self._bound_port == 0:
            raise TransportError("coordinator is not listening yet")
        return self._bound_port

    @property
    def metrics_port(self) -> int:
        """The cluster observability endpoint's bound port (if enabled)."""
        if self._http is None:
            raise TransportError("cluster observability endpoint not configured")
        return self._http.port

    def alive_shards(self) -> List[int]:
        """Indices of shards currently in service."""
        return [i for i, alive in enumerate(self._alive) if alive]

    def merged_registry(self) -> MetricsRegistry:
        """The federated cluster view, rebuilt per scrape.

        The coordinator's own registry merges in under the shard label
        ``coordinator``; each shard merges under its index.
        """
        sources = [(COORDINATOR_SHARD, self.obs_registry)] + [
            (str(index), server.obs.registry)
            for index, server in enumerate(self.servers)
        ]
        return merge_registries(sources)

    def health(self) -> Dict[str, object]:
        """Cluster liveness rollup for the federated ``/healthz``.

        Per-shard health (including each shard's SLO status when an
        engine is attached) plus coordinator-level state: which shards
        are in service and what the supervisor has restarted.
        """
        shards: List[Dict[str, object]] = []
        for index, server in enumerate(self.servers):
            entry: Dict[str, object] = {
                "shard": index,
                "alive": self._alive[index],
            }
            entry.update(server.health())
            shards.append(entry)
        return {
            "num_shards": self.cluster.num_shards,
            "alive_shards": len(self.alive_shards()),
            "supervisor_restarts": self.supervisor_restarts,
            "respawned_shards": list(self.respawned_shards),
            "shards": shards,
        }

    async def start(self) -> None:
        """Bind every shard's listener and the front door."""
        for server in self.servers:
            await server.start()
        if self._listener is None:
            self._listener = await asyncio.start_server(
                self._on_front_connection,
                host=self.cluster.base.host,
                port=self.cluster.base.port,
            )
            if self._listener.sockets:
                self._bound_port = int(
                    self._listener.sockets[0].getsockname()[1]
                )
        if self._http is not None:
            await self._http.start()

    async def wait_cluster_ready(self) -> None:
        """Block until ``expect_clients`` sessions are ready cluster-wide."""
        loop = asyncio.get_running_loop()
        deadline_s = loop.time() + self.cluster.base.start_timeout_s
        while True:
            ready = sum(
                self.servers[i].registry.ready_count()
                for i in self.alive_shards()
            )
            if ready >= self.cluster.expect_clients:
                return
            if loop.time() >= deadline_s:
                raise TransportError(
                    f"timed out waiting for {self.cluster.expect_clients} "
                    f"clients across the cluster ({ready} ready after "
                    f"{self.cluster.base.start_timeout_s:.1f}s)"
                )
            await asyncio.sleep(0.01)

    def install_hook(self, index: int) -> None:
        """Wire the migration hook into one shard's slot loop."""
        self.servers[index].slot_loop.slot_hook = self._make_hook(index)

    async def run(self) -> ClusterResult:
        """Serve one full cluster run (no supervisor restarts)."""
        await self.start()
        released = False
        try:
            await self.wait_cluster_ready()
            for index in range(self.cluster.num_shards):
                self.install_hook(index)
            released = True
            results = await asyncio.gather(
                *(server.run_admitted() for server in self.servers)
            )
        finally:
            await self.aclose()
            if not released:
                # The slot loops never started, so their shutdown path
                # never ran: close the shard listeners here.
                for server in self.servers:
                    await server.aclose()
        return ClusterResult(port=self._bound_port, shards=tuple(results))

    async def aclose(self) -> None:
        """Close the front door and reap coordinator-side tasks."""
        if self._listener is not None:
            self._listener.close()
            await self._listener.wait_closed()
            self._listener = None
        for tasks in (self._front_tasks, self._redirect_tasks):
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
                tasks.clear()
        if self._http is not None:
            await self._http.stop()
        if self._trace is not None:
            await self._trace.aflush()
            await asyncio.to_thread(self._trace.close)

    # ------------------------------------------------------------------
    # Front door
    # ------------------------------------------------------------------
    def _find_session_shard(self, client: str) -> Optional[int]:
        """The live shard already holding a session for this client.

        Covers reconnects and post-migration resumes: a client whose
        seat exists (attached or parked) is sent straight to it —
        never rebalanced away from its own state by a full-looking
        shard (the fullness *is* its seat).
        """
        for index in self.alive_shards():
            registry = self.servers[index].registry
            for session in registry.active():
                if session.client == client:
                    return index
        return None

    def _purge_pending(self) -> None:
        """Drop reservations for clients that landed (or lost their
        shard); what remains still counts against capacity."""
        for client in list(self._pending_routes):
            shard = self._pending_routes[client]
            if not self._alive[shard]:
                del self._pending_routes[client]
                continue
            registry = self.servers[shard].registry
            if any(s.client == client for s in registry.active()):
                del self._pending_routes[client]

    def _free_seats(self) -> List[int]:
        """Per-shard free capacity net of reservations; -1 = dead."""
        self._purge_pending()
        reserved = [0] * self.cluster.num_shards
        for shard in self._pending_routes.values():
            reserved[shard] += 1
        return [
            (
                server.config.max_users
                - server.registry.occupancy()
                - reserved[index]
                if self._alive[index]
                else -1
            )
            for index, server in enumerate(self.servers)
        ]

    def _on_front_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.ensure_future(self._greet(reader, writer))
        self._front_tasks.add(task)
        task.add_done_callback(self._front_tasks.discard)

    async def _greet(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One front-door exchange: read the join, answer a redirect.

        The join frame is consumed here but *answered* by the shard:
        the client replays it (token included) against the redirect
        target, where the real admission or resume handshake runs.
        The redirect goes back on the join's channel, so a multiplexed
        client can tell which of its joins it answers; a connection
        that opens with anything but a channel-tagged join is closed
        unanswered.
        """
        codec = BinaryChannelCodec()
        try:
            units = await asyncio.wait_for(
                read_units(reader, codec), self.cluster.base.join_timeout_s
            )
            if not units:
                return
            channel, message = units[0].channel, units[0].message
            if channel < 0 or not isinstance(message, JoinRequest):
                return
            existing = self._find_session_shard(message.client)
            if existing is not None:
                shard = existing
            else:
                shard = self.router.route(message.client, self._free_seats())
                self._pending_routes[message.client] = shard
            server = self.servers[shard]
            redirect = Redirect(
                host=server.config.host,
                port=server.port,
                shard=shard,
                reason=REDIRECT_ASSIGNED,
            )
            writer.write(codec.encode(redirect, channel=channel))
            await writer.drain()
        except (
            asyncio.TimeoutError,
            ConfigurationError,
            TransportError,
            ConnectionError,
            OSError,
        ):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # ------------------------------------------------------------------
    # Migration
    # ------------------------------------------------------------------
    def request_migration(self, client: str, target: int) -> None:
        """Queue a rebalance: move ``client`` to ``target`` at the
        source shard's next migration point."""
        if not 0 <= target < self.cluster.num_shards:
            raise ConfigurationError(
                f"target shard must be in [0, {self.cluster.num_shards}), "
                f"got {target}"
            )
        if not self._alive[target]:
            raise ConfigurationError(
                f"target shard {target} is not in service"
            )
        source = self.router.assignment(client)
        self._moves.setdefault(source, []).append((client, target))

    def _make_hook(self, index: int) -> Callable[[int], bool]:
        def hook(slot: int) -> bool:
            moves = self._moves.pop(index, None)
            if moves:
                for client, target in moves:
                    self._migrate_one(index, slot, client, target)
            kill = self._kill_slot.get(index)
            if kill is not None and slot >= kill:
                self._evacuate(index, slot)
                return False
            return True

        return hook

    def _emit_migration_span(
        self,
        session: Session,
        source: int,
        target: int,
        slot: int,
        reason: str,
    ) -> None:
        """Record one handoff in the coordinator's trace stream.

        The span carries the session's stable trace identity, so the
        stitcher can bridge the source shard's timeline to the
        target's.  ``start_s`` is the *source* shard's slot number —
        handoffs are instantaneous at the migration point, hence zero
        duration.
        """
        self._migrations_recorded.counter_child(reason=reason).inc()
        if self._trace is None:
            return
        span = Span(
            name="migration",
            start_s=float(slot),
            duration_s=0.0,
            attrs={
                "trace": session.trace_id,
                "client": session.client,
                "source_shard": source,
                "target_shard": target,
                "slot": slot,
                "reason": reason,
                "seq": self._migration_seq,
            },
        )
        self._migration_seq += 1
        self._trace.emit(span)

    def _pick_target(self, source: int) -> int:
        """Least-loaded live shard with a free seat (lowest index ties);
        -1 when the rest of the cluster is full or gone."""
        best = -1
        best_free = 0
        for an_index, server in enumerate(self.servers):
            if an_index == source or not self._alive[an_index]:
                continue
            free = server.config.max_users - server.registry.occupancy()
            if free > best_free:
                best, best_free = an_index, free
        return best

    def _evacuate(self, index: int, slot: int) -> None:
        """Kill path: move every session off shard ``index``, then let
        the hook abort its slot loop.

        Runs synchronously inside the migration point — every handoff
        (capture → install → redirect) completes before any shard
        plans another slot, so the timeline is a pure function of the
        schedule.  Sessions that cannot be placed (cluster full) stay
        behind and end with the shard, exactly like a standalone
        server dying.
        """
        self._alive[index] = False
        server = self.servers[index]
        moved = 0
        for session in server.registry.active():
            target = self._pick_target(index)
            if target < 0:
                continue
            blob = capture_seat(server, session, index)
            install_seat(self.servers[target], blob)
            self.router.pin(session.client, target)
            self._send_redirect(
                index, session, target, slot, REDIRECT_SHARD_KILL
            )
            self._emit_migration_span(
                session, index, target, slot, REDIRECT_SHARD_KILL
            )
            server.metrics.record_migration_out()
            moved += 1
        server.obs.flight.trigger(
            TRIGGER_SHARD_KILL,
            detail=f"shard {index} evacuated {moved} session(s)",
            slot=slot,
        )

    def _migrate_one(
        self, index: int, slot: int, client: str, target: int
    ) -> None:
        """Rebalance path: move one session off a still-running shard."""
        server = self.servers[index]
        session = next(
            (
                s
                for s in server.registry.active()
                if s.client == client and not s.detached
            ),
            None,
        )
        if session is None or not self._alive[target]:
            return
        if target == index:
            return
        free = (
            self.servers[target].config.max_users
            - self.servers[target].registry.occupancy()
        )
        if free < 1:
            return
        blob = capture_seat(server, session, index)
        install_seat(self.servers[target], blob)
        self.router.pin(client, target)
        self._send_redirect(index, session, target, slot, REDIRECT_REBALANCE)
        self._emit_migration_span(
            session, index, target, slot, REDIRECT_REBALANCE
        )
        seat = session.seat
        server.registry.release(seat)
        server.edge.reset_user(seat)
        server.metrics.record_migration_out()

    def _send_redirect(
        self,
        source: int,
        session: Session,
        target: int,
        slot: int,
        reason: str,
    ) -> None:
        """Point a migrated client at its new shard.

        The seat is marked detached first so the source connection
        handler treats the closing socket as coordinator business, not
        a client disconnect.  A scripted ``migration_stall`` delays
        only this send — the client reconnects late, and the *target*
        shard's resume barrier absorbs the wait.  A session with no
        transport (already detached) gets no redirect; its client will
        dial the coordinator's front door and be routed by the
        override table.
        """
        session.detached = True
        session.detached_slot = slot
        writer = session.writer
        if writer is None:
            return
        server = self.servers[target]
        frame = Redirect(
            host=server.config.host,
            port=server.port,
            shard=target,
            reason=reason,
        )
        # The redirect travels on the session's own channel.  A
        # multiplexed connection is shared: closing it would sever
        # every other virtual client on the link, so only a writer
        # this session has to itself is closed here.
        codec = session.codec
        channel = session.seat
        shared = any(
            other is not session and other.writer is writer
            for other in self.servers[source].registry.active()
        )

        def _emit() -> None:
            try:
                writer.write(codec.encode(frame, channel=channel))
            except (TransportError, ConnectionError, OSError):
                pass
            if not shared:
                writer.close()

        stall_s = self._take_stall(source, slot)
        if stall_s > 0:
            self.servers[source].obs.flight.trigger(
                TRIGGER_MIGRATION_STALL,
                detail=(
                    f"redirect of {session.client} to shard {target} "
                    f"stalled {stall_s:.3f}s"
                ),
                slot=slot,
            )
        if stall_s <= 0:
            _emit()
            return

        async def _delayed() -> None:
            await asyncio.sleep(stall_s)
            _emit()

        task = asyncio.ensure_future(_delayed())
        self._redirect_tasks.add(task)
        task.add_done_callback(self._redirect_tasks.discard)

    def _take_stall(self, source: int, slot: int) -> float:
        """Pop the earliest due ``migration_stall`` for this shard."""
        pending = self._stalls.get(source)
        if not pending:
            return 0.0
        for position, event in enumerate(pending):
            if event.slot <= slot:
                del pending[position]
                return event.duration_s
        return 0.0

    # ------------------------------------------------------------------
    # Supervisor support
    # ------------------------------------------------------------------
    def respawn(self, index: int) -> VrServeServer:
        """Replace a dead shard with a fresh server (same shard config).

        The new server is registered for routing and hooked for
        migration, but not started — the supervisor owns its
        lifecycle (bind, wait for a first client, run).
        """
        if self._alive[index]:
            raise ConfigurationError(
                f"shard {index} is still in service; refusing to replace it"
            )
        server = VrServeServer(self.cluster.shard_config(index))
        self.servers[index] = server
        self._alive[index] = True
        self._kill_slot.pop(index, None)
        server.slot_loop.slot_hook = self._make_hook(index)
        self.supervisor_restarts += 1
        self.respawned_shards.append(index)
        server.obs.flight.trigger(
            TRIGGER_SHARD_RESPAWN,
            detail=f"shard {index} replaced after restart "
            f"#{self.supervisor_restarts}",
        )
        return server


async def run_cluster_and_fleet(
    cluster: ShardClusterConfig, fleet_config: LoadGenConfig
) -> Tuple[ClusterResult, FleetReport]:
    """Run a coordinator cluster and its fleet in-process.

    Starts the cluster, points the fleet at the coordinator's front
    door (clients follow redirects to their shards), and returns both
    end-of-run views.  Every client gets its own socket, so a shard
    kill or crash costs exactly the phones it hits.
    """
    coordinator = ShardCoordinator(cluster)
    await coordinator.start()
    run_task = asyncio.ensure_future(coordinator.run())
    try:
        fleet = await run_mux_fleet(
            replace(fleet_config, host=cluster.base.host, port=coordinator.port),
            fleet_config.num_clients,
        )
        result = await run_task
    finally:
        if not run_task.done():
            run_task.cancel()
            await asyncio.gather(run_task, return_exceptions=True)
    return result, fleet
