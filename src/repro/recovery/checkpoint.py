"""Versioned checkpoint/restore for CONGEST runs and node programs.

Two layers, both serializable to disk:

* **program-state snapshots** -- :func:`capture_state` /
  :func:`restore_state` turn one :class:`~repro.congest.node.Program`'s
  mutable state into a restorable value.  Programs may opt in to a
  custom protocol (``snapshot_state()`` / ``restore_state(state)``);
  Algorithm 1's :class:`~repro.core.pipelined.PipelinedSSPProgram`
  does, because its node list is no plain value: it holds each entry
  tuple twice (sorted, and in its source's list) and marks the flag-d*
  entries by identity, which a snapshot row's ``flag_sp`` carries.
  Everything else gets the generic capture: one :func:`copy.deepcopy`
  of the instance ``__dict__`` *as a whole*, so identity sharing inside
  the state survives (copying attributes one by one would silently
  sever it).
* **run-level checkpoints** -- :class:`RunCheckpoint` bundles every
  node's snapshot with the network core state (last processed round,
  started flag, the fault injector's in-flight queue and statistics)
  and the accumulated :class:`~repro.congest.metrics.RunMetrics`.
  Because both backends re-derive their send schedule from the programs
  on every ``run()`` entry (see ``Network.core_state``), restoring a
  checkpoint into a freshly built network of either backend and calling
  ``run`` again is indistinguishable from never having stopped
  (tests/test_recovery.py pins this differentially).

Serialization is a tagged-JSON codec (:func:`encode_value` /
:func:`decode_value`) covering the value shapes program state actually
uses -- ints, floats (including ``inf``), strings, tuples, lists, sets,
deques, Counters, and dicts with non-string keys -- and nothing else:
a state the codec cannot express fails the capture with
:class:`CheckpointError`, and a node tagged with any codec but
``json`` is refused on restore before its data is decoded, so loading
a checkpoint file never runs code from it.  Every node snapshot
carries a SHA-256 digest checked on restore.
"""

from __future__ import annotations

import copy
import hashlib
import json
from collections import Counter, deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..congest.message import Envelope
from ..congest.metrics import RunMetrics

#: Bump on any incompatible change to the serialized layout; ``load``
#: refuses a mismatched version instead of misreading it.
CHECKPOINT_VERSION = 2


class CheckpointError(ValueError):
    """A checkpoint could not be captured, serialized, or restored."""


# ---------------------------------------------------------------------------
# Program-state capture
# ---------------------------------------------------------------------------

def capture_state(program: Any) -> Tuple[str, Any]:
    """A rollback snapshot of one program's mutable state.

    Returns a ``(kind, state)`` pair accepted by :func:`restore_state`.
    The snapshot is already detached from the live program (deep-copied
    or produced by the program's own ``snapshot_state``), so mutating
    the program afterwards cannot corrupt it.
    """
    method = getattr(program, "snapshot_state", None)
    if callable(method):
        return ("custom", method())
    try:
        attrs = vars(program)
    except TypeError:
        raise CheckpointError(
            f"cannot checkpoint {type(program).__name__}: it has no "
            f"__dict__ and does not implement snapshot_state()") from None
    # One deepcopy of the whole dict: a single memo preserves identity
    # sharing between attributes (pipelined best <-> node-list entries).
    return ("attrs", copy.deepcopy(dict(attrs)))


def restore_state(program: Any, snapshot: Tuple[str, Any]) -> None:
    """Restore a :func:`capture_state` snapshot onto *program*.

    The snapshot itself stays pristine (a fresh deep copy is installed),
    so the same snapshot can be restored any number of times.
    """
    kind, state = snapshot
    if kind == "custom":
        program.restore_state(state)
        return
    if kind != "attrs":
        raise CheckpointError(f"unknown snapshot kind {kind!r}")
    attrs = vars(program)
    attrs.clear()
    attrs.update(copy.deepcopy(state))


# ---------------------------------------------------------------------------
# Tagged-JSON value codec
# ---------------------------------------------------------------------------

_TAG = "~"


def encode_value(value: Any) -> Any:
    """Encode a program-state value as JSON-safe data, round-trippable
    by :func:`decode_value` with exact types (tuple vs list, int vs
    float, ``inf``, Counter vs dict) preserved."""
    if value is None or value is True or value is False:
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return {_TAG: "f", "v": repr(value)}
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):
        return {_TAG: "t", "v": [encode_value(x) for x in value]}
    if isinstance(value, list):
        return [encode_value(x) for x in value]
    if isinstance(value, (set, frozenset)):
        items = sorted(value, key=repr)
        tag = "s" if isinstance(value, set) else "fs"
        return {_TAG: tag, "v": [encode_value(x) for x in items]}
    if isinstance(value, deque):
        return {_TAG: "q", "v": [encode_value(x) for x in value],
                "maxlen": value.maxlen}
    if isinstance(value, Counter):
        return {_TAG: "c",
                "v": [[encode_value(k), encode_value(n)]
                      for k, n in sorted(value.items(), key=lambda kv: repr(kv[0]))]}
    if isinstance(value, dict):
        # Ordered pair list: keys need not be strings, insertion order
        # is part of program state on both backends.
        return {_TAG: "d",
                "v": [[encode_value(k), encode_value(v)]
                      for k, v in value.items()]}
    raise CheckpointError(
        f"value of type {type(value).__name__} is not JSON-checkpointable: "
        f"{value!r}")


def decode_value(data: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(data, list):
        return [decode_value(x) for x in data]
    if not isinstance(data, dict):
        return data
    tag = data.get(_TAG)
    if tag == "f":
        return float(data["v"])
    if tag == "t":
        return tuple(decode_value(x) for x in data["v"])
    if tag == "s":
        return {decode_value(x) for x in data["v"]}
    if tag == "fs":
        return frozenset(decode_value(x) for x in data["v"])
    if tag == "q":
        return deque((decode_value(x) for x in data["v"]),
                     maxlen=data.get("maxlen"))
    if tag == "c":
        return Counter({decode_value(k): decode_value(n)
                        for k, n in data["v"]})
    if tag == "d":
        return {decode_value(k): decode_value(v) for k, v in data["v"]}
    raise CheckpointError(f"unknown codec tag {tag!r} in {data!r}")


def serialize_snapshot(snapshot: Tuple[str, Any]) -> Dict[str, Any]:
    """Serialize a :func:`capture_state` snapshot to JSON-safe data
    (:class:`CheckpointError` if the codec cannot express the state)."""
    kind, state = snapshot
    return {"kind": kind, "codec": "json", "data": encode_value(state)}


def deserialize_snapshot(payload: Dict[str, Any]) -> Tuple[str, Any]:
    """Inverse of :func:`serialize_snapshot`.  Only the ``json`` codec
    is read; any other is refused before its data is touched."""
    codec = payload["codec"]
    if codec != "json":
        raise CheckpointError(f"unknown snapshot codec {codec!r}")
    return (payload["kind"], decode_value(payload["data"]))


def _digest(payload: Any) -> str:
    text = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Node and run checkpoints
# ---------------------------------------------------------------------------

@dataclass
class NodeCheckpoint:
    """One node's serialized program state, integrity-checked."""

    node: int
    state: Dict[str, Any]
    digest: str = ""

    def __post_init__(self) -> None:
        if not self.digest:
            self.digest = _digest(self.state)

    @staticmethod
    def capture(node: int, program: Any) -> "NodeCheckpoint":
        return NodeCheckpoint(node, serialize_snapshot(capture_state(program)))

    def restore(self, program: Any) -> None:
        if _digest(self.state) != self.digest:
            raise CheckpointError(
                f"node {self.node}: checkpoint digest mismatch "
                f"(corrupted snapshot)")
        restore_state(program, deserialize_snapshot(self.state))


def _encode_metrics(m: RunMetrics) -> Dict[str, Any]:
    import dataclasses
    return {f.name: encode_value(getattr(m, f.name))
            for f in dataclasses.fields(m)}


def _decode_metrics(data: Dict[str, Any]) -> RunMetrics:
    m = RunMetrics()
    for name, value in data.items():
        setattr(m, name, decode_value(value))
    return m


@dataclass
class RunCheckpoint:
    """A whole execution frozen mid-run: program states, network core
    state, in-flight envelopes, fault statistics, and metrics.

    Backend-agnostic by construction -- neither backend's scheduling
    structures appear here (both rebuild them from the programs), so a
    checkpoint captured on the reference backend restores onto the
    columnar one and vice versa.
    """

    round: int
    started: bool
    nodes: List[NodeCheckpoint]
    in_flight: List[Tuple[int, Envelope]] = field(default_factory=list)
    fault_stats: Optional[Dict[str, int]] = None
    metrics: RunMetrics = field(default_factory=RunMetrics)
    label: str = ""
    version: int = CHECKPOINT_VERSION

    @property
    def digest(self) -> str:
        return _digest(self._payload())

    def _payload(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "label": self.label,
            "round": self.round,
            "started": self.started,
            "nodes": [{"node": c.node, "state": c.state, "digest": c.digest}
                      for c in self.nodes],
            "in_flight": [
                [r, env.src, env.dst, env.round, encode_value(env.payload)]
                for r, env in self.in_flight],
            "fault_stats": self.fault_stats,
            "metrics": _encode_metrics(self.metrics),
        }

    def to_json(self) -> str:
        return json.dumps(self._payload(), indent=1, sort_keys=False)

    @staticmethod
    def from_json(text: str) -> "RunCheckpoint":
        data = json.loads(text)
        version = data.get("version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint version {version!r} is not supported "
                f"(this build reads version {CHECKPOINT_VERSION})")
        nodes = [NodeCheckpoint(c["node"], c["state"], c["digest"])
                 for c in data["nodes"]]
        in_flight = [
            (r, Envelope.make(src, dst, sent_r, decode_value(payload)))
            for r, src, dst, sent_r, payload in data["in_flight"]]
        return RunCheckpoint(
            round=data["round"], started=data["started"], nodes=nodes,
            in_flight=in_flight, fault_stats=data.get("fault_stats"),
            metrics=_decode_metrics(data["metrics"]),
            label=data.get("label", ""), version=version)

    def save(self, path: Any) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json())
        return path

    @staticmethod
    def load(path: Any) -> "RunCheckpoint":
        return RunCheckpoint.from_json(Path(path).read_text())


def checkpoint_network(net: Any, *, label: str = "") -> RunCheckpoint:
    """Freeze a network (either backend) mid-run.

    Typical use: ``net.run(max_rounds=r1)`` raising
    :class:`~repro.congest.network.RoundLimitExceeded` at the suspension
    point, then ``checkpoint_network(net)`` -- see
    :func:`resume_from_checkpoint` for the other half.
    """
    core = net.core_state()
    injector_state = core["injector"]
    return RunCheckpoint(
        round=core["round"],
        started=core["started"],
        nodes=[NodeCheckpoint.capture(v, net.programs[v])
               for v in range(net.n)],
        in_flight=(list(injector_state["in_flight"])
                   if injector_state is not None else []),
        fault_stats=(dict(injector_state["stats"])
                     if injector_state is not None else None),
        metrics=copy.deepcopy(net.metrics),
        label=label)


def restore_network(net: Any, ckpt: RunCheckpoint) -> None:
    """Restore a checkpoint into a *freshly built* network (same graph,
    program factory, and fault plan, either backend)."""
    if net._round != 0 or getattr(net, "_started", False):
        raise CheckpointError(
            "restore_network needs a freshly built network; this one has "
            "already executed rounds")
    if len(net.programs) != len(ckpt.nodes):
        raise CheckpointError(
            f"checkpoint holds {len(ckpt.nodes)} node states but the "
            f"network has {len(net.programs)} nodes")
    for node_ckpt in ckpt.nodes:
        node_ckpt.restore(net.programs[node_ckpt.node])
    injector_state = None
    if ckpt.fault_stats is not None:
        injector_state = {"stats": dict(ckpt.fault_stats),
                          "in_flight": list(ckpt.in_flight)}
    net.restore_core_state({"round": ckpt.round, "started": ckpt.started,
                            "injector": injector_state})
    net.metrics = copy.deepcopy(ckpt.metrics)


def resume_from_checkpoint(ckpt: RunCheckpoint, graph: Any,
                           program_factory: Any, max_rounds: int, *,
                           backend: Optional[str] = None,
                           **network_kwargs: Any):
    """Build a fresh network, restore *ckpt* into it, and run to
    *max_rounds* (absolute, like ``Network.run``).  Returns
    ``(outputs, metrics, network)``."""
    from ..perf.backends import make_network
    net = make_network(graph, program_factory, backend=backend,
                       **network_kwargs)
    restore_network(net, ckpt)
    metrics = net.run(max_rounds=max_rounds)
    return net.outputs(), metrics, net


class CheckpointStore:
    """A directory of named run checkpoints (``<name>.ckpt.json``)."""

    def __init__(self, root: Any) -> None:
        self.root = Path(root)

    def path_of(self, name: str) -> Path:
        if not name or "/" in name or name.startswith("."):
            raise CheckpointError(f"bad checkpoint name {name!r}")
        return self.root / f"{name}.ckpt.json"

    def save(self, name: str, ckpt: RunCheckpoint) -> Path:
        return ckpt.save(self.path_of(name))

    def load(self, name: str) -> RunCheckpoint:
        path = self.path_of(name)
        if not path.exists():
            raise CheckpointError(
                f"no checkpoint named {name!r} in {self.root} "
                f"(have: {', '.join(self.names()) or 'none'})")
        return RunCheckpoint.load(path)

    def names(self) -> List[str]:
        if not self.root.is_dir():
            return []
        return sorted(p.name[:-len(".ckpt.json")]
                      for p in self.root.glob("*.ckpt.json"))

    # -- single-node snapshots (persisted by RecoverableProgram) -------

    def save_node(self, name: str, ckpt: NodeCheckpoint) -> Path:
        path = self.root / f"{name}.node.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"version": CHECKPOINT_VERSION, "node": ckpt.node,
             "state": ckpt.state, "digest": ckpt.digest},
            indent=1))
        return path

    def load_node(self, name: str) -> NodeCheckpoint:
        path = self.root / f"{name}.node.json"
        data = json.loads(path.read_text())
        if data.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"node checkpoint version {data.get('version')!r} is not "
                f"supported (this build reads {CHECKPOINT_VERSION})")
        return NodeCheckpoint(data["node"], data["state"], data["digest"])

    def node_names(self) -> List[str]:
        if not self.root.is_dir():
            return []
        return sorted(p.name[:-len(".node.json")]
                      for p in self.root.glob("*.node.json"))
