"""Assembly of a simulated network from a topology description.

:class:`Network` instantiates hosts, switches, ports and links on a single
simulator, computes routing tables, and manages multicast groups.  It is the
object experiments interact with: they look up hosts, attach transport
endpoints to them, install multicast groups, and read aggregate statistics
(trims, drops, delivered bytes) at the end of a run.

It is also the surface the fault-injection subsystem (:mod:`repro.faults`)
drives: links can be failed/restored/degraded/made lossy, switches failed,
and :meth:`Network.recompute_routes` rebuilds the unicast ECMP table and
every installed multicast tree on the surviving topology.

Routing convergence is not necessarily instantaneous: with
``NetworkConfig.convergence_delay_s`` set, a recompute models control-plane
lag -- the new tables are computed from a snapshot of the failure state at
detection time but only *installed* after the delay, and until then the
fabric keeps forwarding on the stale tables, black-holing traffic aimed at
dead links and switches exactly like a real network between failure and
reconvergence.  The default of 0 preserves the
historical instantaneous behaviour byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Union

from repro.network.host import Host
from repro.network.link import Link, Port
from repro.network.multicast import MulticastGroup, build_multicast_tree, group_table_entries
from repro.network.queues import DropTailQueue, EcnMarker, TrimmingQueue
from repro.network.routing import RoutingMode, RoutingTable, healthy_routes
from repro.network.switch import Switch
from repro.network.topology import Topology
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.sim.trace import TraceLog
from repro.utils.units import GBPS, MICROSECOND
from repro.utils.validation import check_non_negative, check_positive

#: data-queue depth of every trimming switch port, in MTU-sized packets
#: (NDP's shallow 8-packet queue; excess payloads are trimmed to headers).
DATA_QUEUE_CAPACITY_PACKETS = 8


@dataclass(frozen=True)
class NetworkConfig:
    """Link and switch configuration shared by the whole fabric.

    The defaults mirror the paper's evaluation: 1 Gbps links, 10 microsecond
    per-link delay, NDP-style trimming switches with shallow (8 packet) data
    queues.  The TCP baseline overrides ``switch_queue`` to ``"droptail"`` and
    ``routing_mode`` to per-flow ECMP.
    """

    link_rate_bps: float = 1 * GBPS
    link_delay_s: float = 10 * MICROSECOND
    switch_queue: str = "trimming"
    droptail_capacity_packets: int = 100
    routing_mode: RoutingMode = RoutingMode.PACKET_SPRAY
    #: control-plane lag: seconds between a topology change being detected
    #: (``recompute_routes`` called) and the new tables being installed.
    #: 0 (default) reinstalls instantaneously, the historical behaviour.
    convergence_delay_s: float = 0.0
    #: ECN/PCN marking on drop-tail switch egress queues, at a fifth of
    #: their capacity.  Off by default so every pre-existing scenario stays
    #: byte-identical; host NIC queues never mark regardless (a host does
    #: not congest its own egress).  A trimming fabric signals congestion
    #: with trimmed headers and cannot mark.
    ecn_enabled: bool = False

    def __post_init__(self) -> None:
        check_positive("link_rate_bps", self.link_rate_bps)
        check_non_negative("link_delay_s", self.link_delay_s)
        if self.switch_queue not in ("trimming", "droptail"):
            raise ValueError("switch_queue must be 'trimming' or 'droptail'")
        check_positive("droptail_capacity_packets", self.droptail_capacity_packets)
        check_non_negative("convergence_delay_s", self.convergence_delay_s)
        if self.ecn_enabled and self.switch_queue == "trimming":
            raise ValueError("ECN marking needs switch_queue='droptail'; trimming queues do not mark")


class Network:
    """A fully wired simulated network."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        config: Optional[NetworkConfig] = None,
        streams: Optional[RandomStreams] = None,
        trace: Optional[TraceLog] = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.config = config or NetworkConfig()
        self.streams = streams or RandomStreams(master_seed=0)
        self.trace = trace if trace is not None else TraceLog(enabled=False)

        self.routing_table = RoutingTable(topology)
        self.hosts: list[Host] = []
        self._host_by_name: dict[str, Host] = {}
        self.switches: dict[str, Switch] = {}
        self._groups: dict[int, MulticastGroup] = {}
        self._next_node_id = 0
        #: directed wires and ports keyed by (src name, dst name) -- the
        #: registries the fault API addresses full-duplex links through
        self._links: dict[tuple[str, str], Link] = {}
        self._directed_ports: dict[tuple[str, str], Port] = {}
        self._failed_edges: set[frozenset[str]] = set()
        self._failed_switches: set[str] = set()
        #: routing-convergence state: every recompute gets an epoch; a
        #: pending (delayed) install is skipped if a newer epoch installed
        #: first, so stale tables never overwrite fresher ones.
        self._route_epoch = 0
        self._installed_epoch = 0
        #: recomputed tables actually installed (delayed or instantaneous)
        self.route_installs = 0

        self._build_nodes()
        self._build_links()

    # Construction --------------------------------------------------------------

    def _new_queue(self):
        config = self.config
        if config.switch_queue == "trimming":
            return TrimmingQueue(data_capacity_packets=DATA_QUEUE_CAPACITY_PACKETS)
        marker = None
        if config.ecn_enabled:
            # K = 20 at the default 100-packet queue: the classic DCTCP step.
            marker = EcnMarker(threshold_packets=max(1, config.droptail_capacity_packets // 5))
        return DropTailQueue(capacity_packets=config.droptail_capacity_packets, marker=marker)

    def _build_nodes(self) -> None:
        # Hosts take node ids 0..n-1 in topology order, which is how the
        # healthy unicast tables every switch starts from are keyed.
        routes = healthy_routes(self.topology)
        for host_name in routes.hosts:
            host = Host(self.sim, self._next_node_id, host_name, trace=self.trace)
            self._next_node_id += 1
            self.hosts.append(host)
            self._host_by_name[host_name] = host
        for switch_name in routes.switches:
            switch = Switch(
                self.sim,
                self._next_node_id,
                switch_name,
                routing_mode=self.config.routing_mode,
                streams=self.streams,
                trace=self.trace,
                unicast_table=routes.unicast_tables[switch_name],
            )
            self._next_node_id += 1
            self.switches[switch_name] = switch

    def _node_by_name(self, name: str) -> Union[Host, Switch]:
        if name in self._host_by_name:
            return self._host_by_name[name]
        return self.switches[name]

    def _build_links(self) -> None:
        for name_a, name_b in self.topology.graph.edges:
            self._wire_direction(name_a, name_b)
            self._wire_direction(name_b, name_a)

    def _wire_direction(self, src_name: str, dst_name: str) -> None:
        src = self._node_by_name(src_name)
        dst = self._node_by_name(dst_name)
        link = Link(self.sim, dst, self.config.link_delay_s, name=f"{src_name}->{dst_name}")
        if isinstance(src, Host):
            # A host never trims or drops its own traffic: the NIC queue is a
            # deep FIFO and senders pace themselves (initial window at line
            # rate, then pull-clocked / cwnd-clocked).
            queue = DropTailQueue(capacity_packets=100_000)
        else:
            queue = self._new_queue()
        port = Port(
            self.sim,
            owner=src,
            queue=queue,
            rate_bps=self.config.link_rate_bps,
            link=link,
            name=f"{src_name}->{dst_name}",
        )
        if isinstance(src, Host):
            src.attach_nic(port)
        else:
            src.add_port(dst_name, port)
        self._links[(src_name, dst_name)] = link
        self._directed_ports[(src_name, dst_name)] = port

    def _install_routes(self) -> int:
        """Install the routing table into every switch; count changed entries."""
        return sum(
            switch.replace_unicast_table(self.routing_table.unicast_table(switch_name))
            for switch_name, switch in self.switches.items()
        )

    def close(self) -> None:
        """Unwire every node (end of the run).

        Ports name their node as owner and links name their far end, so a
        wired fabric is one big cycle; once no node holds its ports any
        more it is a tree that reference counting frees.  Statistics that
        sum over switch ports read 0 afterwards: collect them first.
        """
        for host in self.hosts:
            host.close()
        for switch in self.switches.values():
            switch.close()

    # Lookup ----------------------------------------------------------------------

    def host(self, key: Union[int, str]) -> Host:
        """Return a host by integer id or by name."""
        if isinstance(key, int):
            return self.hosts[key]
        return self._host_by_name[key]

    def host_id(self, name: str) -> int:
        """Return the integer id of a host name."""
        return self._host_by_name[name].node_id

    @property
    def num_hosts(self) -> int:
        """Number of hosts in the network."""
        return len(self.hosts)

    @property
    def directed_ports(self) -> dict[tuple[str, str], Port]:
        """Every directed egress port keyed by (src name, dst name).

        A shallow copy of the registry the fault API addresses links
        through; the telemetry sampler enumerates it once per run to build
        its per-port probe list.
        """
        return dict(self._directed_ports)

    @property
    def host_names(self) -> list[str]:
        """Names of all hosts, ordered by host id."""
        return [host.name for host in self.hosts]

    # Multicast ---------------------------------------------------------------------

    def create_multicast_group(
        self, group_id: int, source_host: str, receiver_hosts: list[str]
    ) -> MulticastGroup:
        """Install a multicast group: build its tree and program every switch.

        A group created while some receiver is currently unreachable (e.g.
        its rack lost power the moment the transfer started) falls back to
        the tree of the *healthy* topology: packets toward the dead part
        black-hole and are counted by the fabric, and the next routing
        recompute rebuilds the tree on the surviving graph -- the same
        contract as a group whose receivers die after creation.
        """
        if group_id in self._groups:
            raise ValueError(f"multicast group {group_id} already exists")
        try:
            group = build_multicast_tree(
                self.topology, self.routing_table, group_id, source_host, receiver_hosts
            )
        except KeyError:
            group = build_multicast_tree(
                self.topology, RoutingTable(self.topology), group_id, source_host,
                receiver_hosts,
            )
            self.trace.record(
                self.sim.now, "network.group_built_on_baseline", group=group_id
            )
        for node_name, children in group_table_entries(group).items():
            if node_name in self.switches:
                self.switches[node_name].set_group_ports(group_id, children)
        for receiver in receiver_hosts:
            self._host_by_name[receiver].join_group(group_id)
        self._groups[group_id] = group
        return group

    def multicast_group(self, group_id: int) -> MulticastGroup:
        """Return an installed group (KeyError if unknown)."""
        return self._groups[group_id]

    # Dynamic faults ----------------------------------------------------------------
    #
    # These are the hooks the FaultInjector drives.  State-changing calls do
    # NOT recompute routes by themselves: the injector batches a topology
    # change and then calls recompute_routes() once, so an event that fails a
    # switch and three links pays for one rebuild.

    def link_between(self, src_name: str, dst_name: str) -> Link:
        """The directed wire from ``src_name`` to ``dst_name`` (KeyError if not wired)."""
        return self._links[(src_name, dst_name)]

    def set_link_state(self, name_a: str, name_b: str, up: bool) -> None:
        """Fail or restore the full-duplex link between two nodes.

        Both unidirectional wires die together (a cut cable, not a one-way
        fault); packets in flight on either direction are dropped at their
        delivery time and counted per wire.
        """
        if (name_a, name_b) not in self._links:
            raise KeyError(f"no link between {name_a!r} and {name_b!r}")
        for src, dst in ((name_a, name_b), (name_b, name_a)):
            self._links[(src, dst)].set_state(up)
        edge = frozenset((name_a, name_b))
        if up:
            self._failed_edges.discard(edge)
        else:
            self._failed_edges.add(edge)

    def degrade_link(self, name_a: str, name_b: str, rate_fraction: float) -> None:
        """Degrade both directions of a link to a fraction of nominal rate (1.0 restores)."""
        if (name_a, name_b) not in self._directed_ports:
            raise KeyError(f"no link between {name_a!r} and {name_b!r}")
        for src, dst in ((name_a, name_b), (name_b, name_a)):
            self._directed_ports[(src, dst)].set_rate_fraction(rate_fraction)

    def set_link_loss(self, name_a: str, name_b: str, probability: float) -> None:
        """Give both directions of a link an elevated random loss probability (0 clears).

        Per-packet draws come from a named stream of the network's seeded
        :class:`~repro.sim.randomness.RandomStreams`, so loss patterns are a
        pure function of the experiment seed.
        """
        if (name_a, name_b) not in self._links:
            raise KeyError(f"no link between {name_a!r} and {name_b!r}")
        for src, dst in ((name_a, name_b), (name_b, name_a)):
            rng = self.streams.stream(f"faults.loss.{src}->{dst}") if probability > 0 else None
            self._links[(src, dst)].set_loss(probability, rng)

    def set_switch_failed(self, switch_name: str, failed: bool) -> None:
        """Fail or restore a whole switch (it black-holes traffic while down)."""
        self.switches[switch_name].set_failed(failed)
        if failed:
            self._failed_switches.add(switch_name)
        else:
            self._failed_switches.discard(switch_name)

    @property
    def failed_edges(self) -> frozenset[frozenset[str]]:
        """Currently failed full-duplex links (as unordered name pairs)."""
        return frozenset(self._failed_edges)

    @property
    def failed_switches(self) -> frozenset[str]:
        """Currently failed switches."""
        return frozenset(self._failed_switches)

    def recompute_routes(self, on_installed: Optional[Callable[[int], None]] = None) -> int:
        """Rebuild routing on the surviving topology, honouring convergence lag.

        With ``convergence_delay_s == 0`` (the default) the rebuild installs
        immediately and the number of changed table entries is returned, as
        it always was.  With a positive delay this only *snapshots* the
        failure state (what the control plane detected) and schedules the
        install after the lag -- the function returns 0 and the fabric keeps
        forwarding on its stale tables until the install lands, black-holing
        traffic pointed at dead elements in the meantime.  ``on_installed``
        (when given) receives the changed-entry count at actual install
        time, in both modes; a pending install that is superseded by a newer
        recompute, or outlived by the run, never reports.

        The unicast ECMP table is rebuilt excluding failed links and switches
        and re-installed switch by switch (entries for now-unreachable hosts
        become empty sets the forwarding path counts as ``no_route`` drops).
        Every installed multicast tree is then rebuilt on the new table; a
        group whose receivers became unreachable keeps its old tree (packets
        toward the dead part are dropped by the fabric) and is retried on the
        next recompute.
        """
        self._route_epoch += 1
        delay = self.config.convergence_delay_s
        if delay <= 0:
            self._installed_epoch = self._route_epoch
            changed = self._install_routes_for(self._failed_edges, self._failed_switches)
            if on_installed is not None:
                on_installed(changed)
            return changed
        self.trace.record(
            self.sim.now, "network.convergence_pending",
            epoch=self._route_epoch, lag=delay,
        )
        self.sim.schedule(
            delay,
            self._install_converged_routes,
            self._route_epoch,
            frozenset(self._failed_edges),
            frozenset(self._failed_switches),
            on_installed,
        )
        return 0

    def _install_converged_routes(
        self,
        epoch: int,
        failed_edges: frozenset[frozenset[str]],
        failed_switches: frozenset[str],
        on_installed: Optional[Callable[[int], None]],
    ) -> None:
        """Install tables computed from a detection-time snapshot (delayed path)."""
        if epoch <= self._installed_epoch:
            # A newer recompute already installed fresher tables;
            # installing this stale snapshot would regress.
            return
        self._installed_epoch = epoch
        changed = self._install_routes_for(failed_edges, failed_switches)
        self.trace.record(
            self.sim.now, "network.convergence_installed", epoch=epoch, changed=changed
        )
        if on_installed is not None:
            on_installed(changed)

    def _install_routes_for(
        self,
        failed_edges: Iterable[frozenset[str]],
        failed_switches: Iterable[str],
    ) -> int:
        """Rebuild + install unicast tables and multicast trees; count changes."""
        self.routing_table.rebuild(failed_edges, failed_switches)
        changed = self._install_routes()
        self._reinstall_multicast_groups()
        self.route_installs += 1
        return changed

    @property
    def pending_route_installs(self) -> int:
        """Recomputes whose tables have not been installed (or were superseded) yet."""
        return self._route_epoch - self._installed_epoch

    def _reinstall_multicast_groups(self) -> None:
        for group_id, group in list(self._groups.items()):
            try:
                rebuilt = build_multicast_tree(
                    self.topology,
                    self.routing_table,
                    group_id,
                    group.source_host,
                    list(group.receiver_hosts),
                )
            except KeyError:
                self.trace.record(
                    self.sim.now, "network.group_rebuild_failed", group=group_id
                )
                continue
            for node_name in {parent for parent, _ in group.tree_edges}:
                if node_name in self.switches:
                    self.switches[node_name].set_group_ports(group_id, ())
            for node_name, children in group_table_entries(rebuilt).items():
                if node_name in self.switches:
                    self.switches[node_name].set_group_ports(group_id, children)
            self._groups[group_id] = rebuilt

    # Aggregate statistics -------------------------------------------------------------

    @property
    def total_trimmed_packets(self) -> int:
        """Packets trimmed across every switch queue in the fabric."""
        return sum(switch.total_trimmed for switch in self.switches.values())

    @property
    def total_dropped_packets(self) -> int:
        """Packets dropped across every switch queue in the fabric."""
        return sum(switch.total_dropped for switch in self.switches.values())

    @property
    def total_forwarded_packets(self) -> int:
        """Packets forwarded by all switches."""
        return sum(switch.forwarded_packets for switch in self.switches.values())

    @property
    def total_ecn_marked(self) -> int:
        """Packets CE-marked across every switch queue in the fabric."""
        return sum(switch.total_ecn_marked for switch in self.switches.values())

    @property
    def total_dropped_link_down(self) -> int:
        """Packets dropped because their wire was down (including in-flight ones)."""
        return sum(link.dropped_link_down for link in self._links.values())

    @property
    def total_dropped_random_loss(self) -> int:
        """Packets dropped by injected random loss across every wire."""
        return sum(link.dropped_random_loss for link in self._links.values())

    @property
    def total_dropped_switch_down(self) -> int:
        """Packets black-holed by failed switches."""
        return sum(switch.dropped_switch_down for switch in self.switches.values())

    @property
    def degraded_ports(self) -> int:
        """Directed ports currently running below design rate (gray failures)."""
        return sum(1 for port in self._directed_ports.values() if port.is_degraded)
