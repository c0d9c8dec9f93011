"""Deterministic discrete-event harness.

A Schedule fixes an execution completely: which client generates what, and
in which order the FIFO channels (or the broadcast) deliver. run() replays
a schedule under one protocol and records a Trace of do/send/receive
events with vector-time metadata. Identical inputs produce byte-identical
trace JSON.
"""

from __future__ import annotations

import collections
import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from .css_space import CssSnapshot, Oid, ProtocolError
from .jupiter_space import Snapshot2D
from .ot_core import ListOp, ListState, PriorityRule
from .protocols import SERVER_ID, CJClient, CJServer, DJReplica, JClient, JServer, Sequencer

SCHEDULE_FORMAT = 1
TRACE_FORMAT = 1
PRNG_NAME = "py-mt19937/v1"
BROADCAST = -1

GLYPH_POOL = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

PROTOCOLS = ("cjupiter", "jupiter", "djupiter")


class ScheduleError(ValueError):
    """A schedule that no run could execute: bad ids, dangling delivery,
    or a FIFO channel drawn below empty."""


@dataclass(frozen=True)
class OpSpec:
    kind: str  # "ins" | "del" | "read"
    glyph: Optional[str] = None
    pos: Optional[int] = None


@dataclass(frozen=True)
class GenerateStep:
    cid: int
    op: OpSpec


@dataclass(frozen=True)
class DeliverStep:
    to: int  # replica id, 0 = server
    frm: int


Step = Union[GenerateStep, DeliverStep]


@dataclass(frozen=True)
class Schedule:
    n_clients: int
    steps: Tuple[Step, ...]
    priority_rule: PriorityRule = PriorityRule.SMALLER_WINS
    prng: Optional[Tuple[str, int]] = None  # (generator name, seed)


def _replica_name(rid: int) -> str:
    return "server" if rid == SERVER_ID else f"c{rid}"


def _replica_id(name: object) -> int:
    if name == "server":
        return SERVER_ID
    if isinstance(name, str) and name.startswith("c") and name[1:].isdigit():
        return int(name[1:])
    raise ScheduleError(f"unknown replica name {name!r}")


def _whole(value: object, least: int, what: str) -> int:
    """A JSON integer >= least; booleans are not integers here."""
    if type(value) is not int or value < least:
        raise ScheduleError(f"{what} must be an integer >= {least}, got {value!r}")
    return value


def _object(value: object, what: str) -> dict:
    if not isinstance(value, dict):
        raise ScheduleError(f"{what} must be a JSON object, got {value!r}")
    return value


def schedule_to_json(schedule: Schedule) -> str:
    steps = []
    for s in schedule.steps:
        if isinstance(s, GenerateStep):
            op: Dict[str, object] = {"kind": s.op.kind}
            if s.op.glyph is not None:
                op["glyph"] = s.op.glyph
            if s.op.pos is not None:
                op["pos"] = s.op.pos
            steps.append({"type": "generate", "cid": s.cid, "op": op})
        else:
            steps.append(
                {"type": "deliver", "to": _replica_name(s.to), "from": _replica_name(s.frm)}
            )
    doc = {
        "format": SCHEDULE_FORMAT,
        "n_clients": schedule.n_clients,
        "priority_rule": schedule.priority_rule.value,
        "steps": steps,
    }
    if schedule.prng is not None:
        doc["prng"] = list(schedule.prng)
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def schedule_from_json(text: str) -> Schedule:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScheduleError(f"schedule is not valid JSON: {exc}") from exc
    doc = _object(doc, "a schedule document")
    if doc.get("format") != SCHEDULE_FORMAT:
        raise ScheduleError(f"unsupported schedule format {doc.get('format')!r}")
    try:
        steps: List[Step] = []
        for raw in doc.get("steps", []):
            raw = _object(raw, "a step")
            if raw.get("type") == "generate":
                op = _object(raw.get("op", {}), "an op")
                pos = op.get("pos")
                glyph = op.get("glyph")
                if glyph is not None and not isinstance(glyph, str):
                    raise ScheduleError(f"glyph must be a string, got {glyph!r}")
                steps.append(
                    GenerateStep(
                        _whole(raw["cid"], 1, "cid"),
                        OpSpec(op["kind"], glyph, None if pos is None else _whole(pos, 0, "pos")),
                    )
                )
            elif raw.get("type") == "deliver":
                steps.append(DeliverStep(_replica_id(raw["to"]), _replica_id(raw["from"])))
            else:
                raise ScheduleError(f"unknown step type {raw.get('type')!r}")
        rule = PriorityRule(doc.get("priority_rule", "smaller_wins"))
        prng = tuple(doc["prng"]) if "prng" in doc else None
        return Schedule(_whole(doc["n_clients"], 1, "n_clients"), tuple(steps), rule, prng)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ScheduleError):
            raise
        raise ScheduleError(f"malformed schedule document: {exc}") from exc


def schedule_digest(schedule: Schedule) -> str:
    return hashlib.sha256(schedule_to_json(schedule).encode()).hexdigest()


def validate_schedule(schedule: Schedule, protocol: str) -> None:
    """Raise ScheduleError unless every step of the schedule can run under
    the protocol: known ids, well-formed ops, no delivery from an empty
    channel."""
    sim = Simulation(protocol, schedule.n_clients, schedule.priority_rule)
    for i, step in enumerate(schedule.steps):
        sim.step(step, i)


# --------------------------------------------------------------------------
# Trace model


@dataclass(frozen=True)
class OpRecord:
    kind: str
    oid: Optional[str] = None
    element: Optional[Tuple[str, int, int]] = None
    pos: Optional[int] = None


@dataclass(frozen=True)
class TraceEvent:
    index: int
    replica: int
    kind: str  # "do" | "send" | "receive"
    vclock: Tuple[int, ...]
    op: Optional[OpRecord] = None
    value: Optional[Tuple[Tuple[str, int, int], ...]] = None
    msg_id: Optional[str] = None
    src: Optional[int] = None
    dst: Optional[int] = None
    ot_seq: Optional[Tuple[str, ...]] = None


@dataclass(frozen=True)
class Trace:
    protocol: str
    n_clients: int
    priority_rule: str
    schedule_sha256: str
    events: Tuple[TraceEvent, ...]
    prng: Optional[Tuple[str, int]] = None


def _value_tuple(state: ListState) -> Tuple[Tuple[str, int, int], ...]:
    return tuple((e.glyph, e.origin_cid, e.origin_seq) for e in state)


def _op_record(oid: Oid, o: ListOp) -> OpRecord:
    elem = None
    if o.element is not None:
        elem = (o.element.glyph, o.element.origin_cid, o.element.origin_seq)
    return OpRecord(o.kind.value, oid.token(), elem, o.position)


def trace_to_json(trace: Trace) -> str:
    events = []
    for e in trace.events:
        doc: Dict[str, object] = {
            "i": e.index,
            "replica": e.replica,
            "kind": e.kind,
            "vc": list(e.vclock),
        }
        if e.op is not None:
            op: Dict[str, object] = {"kind": e.op.kind}
            if e.op.oid is not None:
                op["oid"] = e.op.oid
            if e.op.element is not None:
                op["element"] = list(e.op.element)
            if e.op.pos is not None:
                op["pos"] = e.op.pos
            doc["op"] = op
        if e.value is not None:
            doc["value"] = [list(v) for v in e.value]
            doc["text"] = "".join(v[0] for v in e.value)
        if e.msg_id is not None:
            doc["msg"] = e.msg_id
        if e.src is not None:
            doc["src"] = _replica_name(e.src) if e.src != BROADCAST else "broadcast"
        if e.dst is not None:
            doc["dst"] = _replica_name(e.dst) if e.dst != BROADCAST else "broadcast"
        if e.ot_seq is not None:
            doc["ot_seq"] = list(e.ot_seq)
        events.append(doc)
    doc = {
        "format": TRACE_FORMAT,
        "protocol": trace.protocol,
        "n_clients": trace.n_clients,
        "priority_rule": trace.priority_rule,
        "schedule_sha256": trace.schedule_sha256,
        "prng": list(trace.prng) if trace.prng else None,
        "events": events,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def happens_before(trace: Trace) -> frozenset:
    """The causally-before relation on trace events, as index pairs.

    Every event increments its replica's own vector-clock component, so
    e1 causally precedes e2 exactly when vclock(e1) < vclock(e2).
    """
    return frozenset(causal_pairs(trace.events))


def causal_pairs(events: Sequence) -> Set[Tuple[int, int]]:
    """(a.index, b.index) for every two events with a.vclock < b.vclock.

    a.vclock <= b.vclock componentwise exactly when, for every component
    k, a lies in the prefix of the events sorted by component k that ends
    with the events whose k-th value equals b's. So le[b], the bitset of
    those a, is the AND over k of one prefix mask each, and a.vclock <
    b.vclock when in addition the two clocks differ. That costs
    O(n H log H + |pairs|) for H events of n components, not H² compares.
    Raises ProtocolError if the clocks differ in length."""
    clocks = [e.vclock for e in events]
    if len(set(map(len, clocks))) > 1:
        raise ProtocolError("vector clocks of different lengths")
    le = [(1 << len(clocks)) - 1] * len(clocks)
    for column in zip(*clocks):
        upto: Dict[int, int] = {}  # value -> bitset of the events with that value, then at most it
        for p, v in enumerate(column):
            upto[v] = upto.get(v, 0) | 1 << p
        prefix = 0
        for v in sorted(upto):
            prefix = upto[v] = prefix | upto[v]
        le = [m & upto[v] for m, v in zip(le, column)]
    same: Dict[Tuple[int, ...], int] = {}
    for p, c in enumerate(clocks):
        same[c] = same.get(c, 0) | 1 << p
    index = [e.index for e in events]
    pairs: Set[Tuple[int, int]] = set()
    for b, (m, c) in enumerate(zip(le, clocks)):
        w = m & ~same[c]
        while w:
            low = w & -w
            pairs.add((index[low.bit_length() - 1], index[b]))
            w ^= low
    return pairs


def vc_less(a: Sequence[int], b: Sequence[int]) -> bool:
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def check_fifo(trace: Trace) -> None:
    """Per point-to-point channel, receive order must equal send order."""
    sent: Dict[Tuple[int, int], List[str]] = {}
    received: Dict[Tuple[int, int], List[str]] = {}
    for e in trace.events:
        if e.kind == "send":
            sent.setdefault((e.src, e.dst), []).append(e.msg_id)
        elif e.kind == "receive":
            received.setdefault((e.src, e.dst), []).append(e.msg_id)
    for chan, got in received.items():
        if BROADCAST in chan:
            continue
        want = sent.get(chan, [])[: len(got)]
        if got != want:
            raise ProtocolError(f"FIFO violation on channel {chan}: {got} vs {want}")


# --------------------------------------------------------------------------
# Engine


@dataclass
class RunResult:
    protocol: str
    schedule: Schedule
    trace: Trace
    final_values: Dict[int, Tuple[Tuple[str, int, int], ...]]
    arrival_log: Tuple[Oid, ...]
    quiescent: bool
    # cjupiter / djupiter artifacts
    css_final: Dict[int, CssSnapshot] = field(default_factory=dict)
    css_server_steps: Tuple[CssSnapshot, ...] = ()
    css_client_steps: Dict[int, Tuple[CssSnapshot, ...]] = field(default_factory=dict)
    # jupiter artifacts
    cscw_client_final: Dict[int, Snapshot2D] = field(default_factory=dict)
    cscw_server_final: Dict[int, Snapshot2D] = field(default_factory=dict)
    cscw_client_steps: Dict[int, Tuple[Snapshot2D, ...]] = field(default_factory=dict)


class Simulation:
    """One protocol's replicas and their reliable FIFO channels: one up-queue
    and one down-queue per client, all through replica 0. Under djupiter
    replica 0 is the broadcast Sequencer, so the channels are the same.

    step() runs one schedule step and logs it; the log holds only
    references to immutable values, and events() turns it into trace
    events with vector clocks in one pass.
    """

    def __init__(self, protocol: str, n_clients: int, rule: PriorityRule):
        if protocol not in PROTOCOLS:
            raise ScheduleError(f"unknown protocol {protocol!r}")
        if n_clients < 1:
            raise ScheduleError("need at least one client")
        self.n_clients = n_clients
        if protocol == "cjupiter":
            self.hub, client = CJServer(n_clients), CJClient
        elif protocol == "jupiter":
            self.hub, client = JServer(n_clients), JClient
        else:
            self.hub, client = Sequencer(n_clients), DJReplica
        # The peer at the other end of every client channel, as traced.
        self.hub_id = BROADCAST if protocol == "djupiter" else SERVER_ID
        self.clients = {c: client(c, rule) for c in range(1, n_clients + 1)}
        self.up = {c: collections.deque() for c in self.clients}
        self.down = {c: collections.deque() for c in self.clients}
        self.log: List[tuple] = []
        self.messages = 0
        self.glyphs = 0

    def enabled(self) -> List[DeliverStep]:
        """The deliveries that can run now: per client in id order, its
        up-channel then its down-channel. Generators index into this list,
        so the order is part of every seeded schedule."""
        acts: List[DeliverStep] = []
        for c in self.clients:
            if self.up[c]:
                acts.append(DeliverStep(SERVER_ID, c))
            if self.down[c]:
                acts.append(DeliverStep(c, SERVER_ID))
        return acts

    def quiescent(self) -> bool:
        return not any(self.up.values()) and not any(self.down.values())

    def _send(self, rid: int, dst: int) -> int:
        self.messages += 1
        self.log.append(("send", rid, self.messages, dst))
        return self.messages

    def step(self, step: Step, i: int) -> Optional[int]:
        """Run step `i` of a schedule. Returns the replica whose state
        changed, or None for a read; raises ScheduleError if the step
        cannot run."""
        if isinstance(step, GenerateStep):
            cid, spec = step.cid, step.op
            if cid not in self.clients:
                raise ScheduleError(f"step {i}: generate at unknown client c{cid}")
            client = self.clients[cid]
            if spec.kind == "read":
                self.log.append(("do", cid, None, client.state))
                return None
            if spec.kind not in ("ins", "del"):
                raise ScheduleError(f"step {i}: unknown op kind {spec.kind!r}")
            if not isinstance(spec.pos, int) or spec.pos < 0:
                raise ScheduleError(f"step {i}: {spec.kind} needs a non-negative position")
            if spec.kind == "ins":
                glyph = spec.glyph
                if glyph is None:
                    glyph = GLYPH_POOL[self.glyphs % len(GLYPH_POOL)]
                    self.glyphs += 1
                o = client.make_ins(glyph, spec.pos)
            else:
                o = client.make_del(spec.pos)
            result = client.do(o)
            self.log.append(("do", cid, result.message, result.value))
            self.up[cid].append((self._send(cid, self.hub_id), result.message))
            return cid
        to, frm = step.to, step.frm
        if to == SERVER_ID and frm in self.up:
            queue = self.up[frm]
        elif frm == SERVER_ID and to in self.down:
            queue = self.down[to]
        else:
            raise ScheduleError(f"step {i}: bad delivery {step}")
        if not queue:
            raise ScheduleError(
                f"step {i}: delivery to {_replica_name(to)} from an empty channel"
            )
        msg, op = queue.popleft()
        if to != SERVER_ID:
            result = self.clients[to].receive(op)
            self.log.append(("receive", to, msg, self.hub_id, op.oid, result))
            return to
        result = self.hub.receive(op)
        if self.hub_id == BROADCAST:
            # The sequencer relays the original message and records nothing.
            for dst, payload in result.fanout:
                self.down[dst].append((msg, payload))
        else:
            self.log.append(("receive", SERVER_ID, msg, frm, op.oid, result))
            for dst, payload in result.fanout:
                self.down[dst].append((self._send(SERVER_ID, dst), payload))
        return SERVER_ID

    def events(self) -> Tuple[TraceEvent, ...]:
        """The log as trace events. Every event ticks its replica's own
        clock component; a receive first merges the clock of the message's
        send event."""
        vcs = [[0] * (self.n_clients + 1) for _ in range(self.n_clients + 1)]
        sent: Dict[int, Tuple[int, ...]] = {}
        events: List[TraceEvent] = []
        for entry in self.log:
            kind, rid = entry[0], entry[1]
            vc = vcs[rid]
            if kind == "receive":
                for k, x in enumerate(sent[entry[2]]):
                    if x > vc[k]:
                        vc[k] = x
            vc[rid] += 1
            clock = tuple(vc)
            i = len(events)
            if kind == "do":
                _, _, op, value = entry
                record = OpRecord("read") if op is None else _op_record(op.oid, op.o)
                events.append(TraceEvent(i, rid, "do", clock, op=record, value=_value_tuple(value)))
            elif kind == "send":
                _, _, msg, dst = entry
                sent[msg] = clock
                events.append(TraceEvent(i, rid, "send", clock, msg_id=f"m{msg}", src=rid, dst=dst))
            else:
                _, _, msg, src, oid, result = entry
                events.append(
                    TraceEvent(
                        i,
                        rid,
                        "receive",
                        clock,
                        op=_op_record(oid, result.applied.o),
                        value=_value_tuple(result.value),
                        msg_id=f"m{msg}",
                        src=src,
                        dst=rid,
                        ot_seq=tuple(o.token() for o in result.ot_seq),
                    )
                )
        return tuple(events)


def run(protocol: str, schedule: Schedule, record_snapshots: bool = True) -> RunResult:
    """Replay a schedule under a protocol; deterministic in its arguments.
    Raises ScheduleError at the first step that cannot run."""
    sim = Simulation(protocol, schedule.n_clients, schedule.priority_rule)
    spaces = {SERVER_ID: sim.hub.space} if protocol == "cjupiter" else {}
    spaces.update((c, cl.space) for c, cl in sim.clients.items())
    steps: Dict[int, list] = {rid: [] for rid in spaces}
    if record_snapshots:
        for rid, space in spaces.items():
            steps[rid].append(space.snapshot())
    for i, step in enumerate(schedule.steps):
        rid = sim.step(step, i)
        if record_snapshots and rid in spaces:
            steps[rid].append(spaces[rid].snapshot())

    trace = Trace(
        protocol=protocol,
        n_clients=schedule.n_clients,
        priority_rule=schedule.priority_rule.value,
        schedule_sha256=schedule_digest(schedule),
        events=sim.events(),
        prng=schedule.prng,
    )
    holders = {SERVER_ID: sim.hub} if protocol != "djupiter" else {}
    holders.update(sim.clients)
    result = RunResult(
        protocol=protocol,
        schedule=schedule,
        trace=trace,
        final_values={rid: _value_tuple(r.state) for rid, r in holders.items()},
        arrival_log=tuple(sim.hub.arrival_log),
        quiescent=sim.quiescent(),
    )
    client_steps = {c: tuple(steps[c]) for c in sim.clients}
    if protocol == "jupiter":
        result.cscw_client_final = {c: cl.space.snapshot() for c, cl in sim.clients.items()}
        result.cscw_server_final = {c: s.snapshot() for c, s in sim.hub.spaces.items()}
        result.cscw_client_steps = client_steps
    else:
        result.css_final = {rid: space.snapshot() for rid, space in spaces.items()}
        result.css_server_steps = tuple(steps.get(SERVER_ID, ()))
        result.css_client_steps = client_steps
    return result


# --------------------------------------------------------------------------
# Schedule generation


def random_schedule(
    n_clients: int,
    n_updates: int,
    seed: int,
    priority_rule: PriorityRule = PriorityRule.SMALLER_WINS,
    read_probability: float = 0.15,
) -> Schedule:
    """Seeded-deterministic schedule: updates with in-range positions,
    arbitrary FIFO-respecting interleaving, full drain, and final reads.

    A live replay tracks every client's actual list so deletion positions
    always target an existing element.
    """
    if n_updates < 0:
        raise ScheduleError("updates cannot be negative")
    sim = Simulation("cjupiter", n_clients, priority_rule)
    rng = random.Random(seed)
    steps: List[Step] = []
    generated = 0
    glyphs = 0
    while True:
        actions: List[object] = sim.enabled()
        if generated < n_updates:
            actions += ["generate", "generate"]
        if not actions:
            break
        if rng.random() < read_probability:
            # Reads change no state, so they need not run here.
            steps.append(GenerateStep(rng.randint(1, n_clients), OpSpec("read")))
        act = rng.choice(actions)
        if act == "generate":
            cid = rng.randint(1, n_clients)
            length = len(sim.clients[cid].state)
            if length > 0 and rng.random() < 0.4:
                spec = OpSpec("del", pos=rng.randint(0, length - 1))
            else:
                spec = OpSpec("ins", glyph=GLYPH_POOL[glyphs % len(GLYPH_POOL)], pos=rng.randint(0, length))
                glyphs += 1
            act = GenerateStep(cid, spec)
            generated += 1
        steps.append(act)
        sim.step(act, len(steps) - 1)

    for c in range(1, n_clients + 1):
        steps.append(GenerateStep(c, OpSpec("read")))
    return Schedule(n_clients, tuple(steps), priority_rule, prng=(PRNG_NAME, seed))


def podc16_schedule(priority_rule: PriorityRule = PriorityRule.SMALLER_WINS) -> Schedule:
    """The golden four-operation scenario: one insert seen everywhere, then
    three concurrent updates serialized by the server in a fixed order."""
    steps: Tuple[Step, ...] = (
        GenerateStep(1, OpSpec("ins", glyph="x", pos=0)),  # o1
        DeliverStep(SERVER_ID, 1),
        DeliverStep(2, SERVER_ID),
        DeliverStep(3, SERVER_ID),
        GenerateStep(1, OpSpec("del", pos=0)),  # o2
        GenerateStep(2, OpSpec("ins", glyph="a", pos=0)),  # o3
        GenerateStep(3, OpSpec("ins", glyph="b", pos=1)),  # o4
        DeliverStep(SERVER_ID, 1),
        DeliverStep(SERVER_ID, 2),
        DeliverStep(SERVER_ID, 3),
        DeliverStep(2, SERVER_ID),  # o2 at c2
        DeliverStep(3, SERVER_ID),  # o2 at c3
        DeliverStep(1, SERVER_ID),  # o3 at c1
        DeliverStep(2, SERVER_ID),  # o4 at c2
        DeliverStep(3, SERVER_ID),  # o3 at c3
        DeliverStep(1, SERVER_ID),  # o4 at c1
        GenerateStep(1, OpSpec("read")),
        GenerateStep(2, OpSpec("read")),
        GenerateStep(3, OpSpec("read")),
    )
    return Schedule(3, steps, priority_rule)


def empty_schedule(n_clients: int = 1) -> Schedule:
    return Schedule(n_clients, ())
