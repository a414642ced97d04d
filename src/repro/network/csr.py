"""Frozen CSR (compressed-sparse-row) snapshots of a :class:`RoadNetwork`.

The dict-of-lists adjacency in :mod:`repro.network.graph` is the *mutable*
representation: O(1) weight updates make dynamic snapshots cheap, which is
what the paper's Section I model needs.  But every search pays for that
flexibility — per-call ``dict`` distance maps, boxed ``[v, w]`` pair lists,
and (on spawn platforms) a full graph unpickle per pool worker.

:class:`CSRGraph` is the *frozen* counterpart: forward and reverse adjacency
as flat ``array('i')``/``array('d')`` offset+target+weight arrays plus the
coordinate arrays and a precomputed ``heuristic_scale``, all keyed to the
source network's ``version``.  ``RoadNetwork.freeze()`` builds (and caches)
one; the search layer transparently switches to the index-based kernels in
:mod:`repro.search.csr_kernels` whenever it is handed a frozen graph.

Because the payload is a handful of flat typed buffers, a snapshot can be
placed in :mod:`multiprocessing.shared_memory` and *attached* by spawn
workers instead of unpickled: :func:`share_csr` publishes the buffers under
one segment, :meth:`CSRGraph.attach` maps them zero-copy from the segment
name.  Ownership stays with the parent (:class:`SharedCSR` closes *and*
unlinks); workers only ever ``close`` their attachment.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..exceptions import GraphError
from .spatial import euclidean as _point_euclidean

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.shared_memory import SharedMemory

    from .graph import RoadNetwork

__all__ = [
    "CSRGraph",
    "CSRHandle",
    "SharedCSR",
    "share_csr",
    "shared_size",
]

#: Decoded adjacency: ``rows[u]`` is a tuple of ``(v, w)`` pairs.  Tuples of
#: tuples iterate measurably faster than indexing the flat arrays from
#: CPython, so the kernels run over this per-process decode while the flat
#: arrays stay the canonical (and shareable) representation.
Rows = Tuple[Tuple[Tuple[int, float], ...], ...]

IntBuffer = Union["array[int]", memoryview]
FloatBuffer = Union["array[float]", memoryview]

_ITEMSIZE = {"d": 8, "i": 4}


def _layout(n: int, m: int) -> Tuple[Tuple[str, str, int], ...]:
    """Segment layout: ``(attribute, typecode, count)`` in storage order.

    All doubles precede all int32s so every block stays naturally aligned
    for ``memoryview.cast`` without padding bookkeeping.
    """
    return (
        ("fweight", "d", m),
        ("rweight", "d", m),
        ("xs", "d", n),
        ("ys", "d", n),
        ("findptr", "i", n + 1),
        ("ftarget", "i", m),
        ("rindptr", "i", n + 1),
        ("rtarget", "i", m),
    )


def shared_size(n: int, m: int) -> int:
    """Exact byte size of the shared-memory segment for an ``n``/``m`` graph."""
    return sum(count * _ITEMSIZE[code] for _, code, count in _layout(n, m))


@dataclass(frozen=True)
class CSRHandle:
    """Everything a worker needs to attach a shared snapshot: names, not data."""

    name: str
    num_vertices: int
    num_edges: int
    heuristic_scale: float
    version: int


class CSRGraph:
    """Read-only flat-array snapshot of a road network.

    Exposes the read-only subset of the :class:`RoadNetwork` API that the
    search kernels, answerers and decomposers consume (``xs``/``ys``,
    ``coord``, ``euclidean``, ``heuristic``, ``weight``, ``neighbors``,
    ``extent`` ...), so it can stand in for the mutable graph anywhere no
    mutation happens — in particular inside pool workers.
    """

    __slots__ = (
        "findptr",
        "ftarget",
        "fweight",
        "rindptr",
        "rtarget",
        "rweight",
        "xs",
        "ys",
        "heuristic_scale",
        "version",
        "_n",
        "_m",
        "_frows",
        "_rrows",
        "_coords",
        "_scratch",
        "_npview",
        "_landmarks",
        "_shm",
        "_views",
    )

    def __init__(
        self,
        *,
        num_vertices: int,
        num_edges: int,
        findptr: IntBuffer,
        ftarget: IntBuffer,
        fweight: FloatBuffer,
        rindptr: IntBuffer,
        rtarget: IntBuffer,
        rweight: FloatBuffer,
        xs: FloatBuffer,
        ys: FloatBuffer,
        heuristic_scale: float,
        version: int,
    ) -> None:
        self._n = num_vertices
        self._m = num_edges
        self.findptr = findptr
        self.ftarget = ftarget
        self.fweight = fweight
        self.rindptr = rindptr
        self.rtarget = rtarget
        self.rweight = rweight
        self.xs = xs
        self.ys = ys
        self.heuristic_scale = heuristic_scale
        self.version = version
        self._frows: Optional[Rows] = None
        self._rrows: Optional[Rows] = None
        self._coords: Optional[Tuple[List[float], List[float]]] = None
        #: Per-snapshot search workspace, lazily attached by the kernels.
        self._scratch: Optional[object] = None
        #: Lazily-built numpy views of the flat buffers (np_kernels).
        self._npview: Optional[object] = None
        #: Lazily-built ALT landmark bounds of this snapshot (landmarks.py);
        #: never pickled, so every process builds its own.
        self._landmarks: Optional[object] = None
        self._shm: Optional["SharedMemory"] = None
        self._views: List[memoryview] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_network(cls, net: "RoadNetwork") -> "CSRGraph":
        """Build a frozen snapshot of ``net`` (prefer ``net.freeze()``)."""
        n = net.num_vertices
        findptr: List[int] = [0] * (n + 1)
        ftarget: List[int] = []
        fweight: List[float] = []
        for u, row in enumerate(net._adj):  # noqa: SLF001 - snapshot build
            for v, w in row:
                ftarget.append(int(v))
                fweight.append(w)
            findptr[u + 1] = len(ftarget)
        rindptr: List[int] = [0] * (n + 1)
        rtarget: List[int] = []
        rweight: List[float] = []
        for v, row in enumerate(net._radj):  # noqa: SLF001 - snapshot build
            for u, w in row:
                rtarget.append(int(u))
                rweight.append(w)
            rindptr[v + 1] = len(rtarget)
        return cls(
            num_vertices=n,
            num_edges=len(ftarget),
            findptr=array("i", findptr),
            ftarget=array("i", ftarget),
            fweight=array("d", fweight),
            rindptr=array("i", rindptr),
            rtarget=array("i", rtarget),
            rweight=array("d", rweight),
            xs=array("d", net.xs),
            ys=array("d", net.ys),
            heuristic_scale=net.heuristic_scale,
            version=net.version,
        )

    # ------------------------------------------------------------------
    # RoadNetwork-compatible read-only API
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self._n

    @property
    def num_edges(self) -> int:
        return self._m

    def __len__(self) -> int:
        return self._n

    def coord(self, v: int) -> Tuple[float, float]:
        return (self.xs[v], self.ys[v])

    def euclidean(self, u: int, v: int) -> float:
        return _point_euclidean(self.xs[u], self.ys[u], self.xs[v], self.ys[v])

    def heuristic(self, u: int, v: int) -> float:
        return self.euclidean(u, v) * self.heuristic_scale

    def neighbors(self, u: int) -> Sequence[Tuple[int, float]]:
        """Outgoing ``(v, w)`` pairs of ``u`` (immutable)."""
        return self.forward_rows()[u]

    def in_neighbors(self, v: int) -> Sequence[Tuple[int, float]]:
        """Incoming ``(u, w)`` pairs of ``v`` (immutable)."""
        return self.reverse_rows()[v]

    def out_degree(self, u: int) -> int:
        return self.findptr[u + 1] - self.findptr[u]

    def in_degree(self, v: int) -> int:
        return self.rindptr[v + 1] - self.rindptr[v]

    def degree(self, v: int) -> int:
        return self.out_degree(v) + self.in_degree(v)

    def has_edge(self, u: int, v: int) -> bool:
        for t, _ in self.forward_rows()[u]:
            if t == v:
                return True
        return False

    def weight(self, u: int, v: int) -> float:
        for t, w in self.forward_rows()[u]:
            if t == v:
                return w
        raise GraphError(f"edge ({u}, {v}) does not exist")

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        rows = self.forward_rows()
        for u in range(self._n):
            for v, w in rows[u]:
                yield (u, v, w)

    def extent(self) -> Tuple[float, float, float, float]:
        if self._n == 0:
            raise GraphError("extent of an empty network")
        return (min(self.xs), min(self.ys), max(self.xs), max(self.ys))

    def total_weight(self) -> float:
        import math

        return math.fsum(self.fweight)

    def path_prefix_weights(self, path: Sequence[int]) -> List[float]:
        """Cumulative weights along ``path``: ``prefix[i] = d(path[0], path[i])``."""
        rows = self.forward_rows()
        prefix = [0.0]
        total = 0.0
        for u, v in zip(path, path[1:]):
            for t, w in rows[u]:
                if t == v:
                    total += w
                    break
            else:
                raise GraphError(f"edge ({u}, {v}) does not exist")
            prefix.append(total)
        return prefix

    # A CSRGraph is its own frozen form, so code holding either kind of
    # graph can call freeze()/frozen_or_none() unconditionally.
    def freeze(self) -> "CSRGraph":
        return self

    def frozen_or_none(self) -> Optional["CSRGraph"]:
        return self

    # ------------------------------------------------------------------
    # Kernel-facing decoded views (per-process, lazily built)
    # ------------------------------------------------------------------
    def forward_rows(self) -> Rows:
        if self._frows is None:
            self._frows = self._decode(self.findptr, self.ftarget, self.fweight)
        return self._frows

    def reverse_rows(self) -> Rows:
        if self._rrows is None:
            self._rrows = self._decode(self.rindptr, self.rtarget, self.rweight)
        return self._rrows

    def coord_lists(self) -> Tuple[List[float], List[float]]:
        if self._coords is None:
            self._coords = (list(self.xs), list(self.ys))
        return self._coords

    def _decode(self, indptr: IntBuffer, target: IntBuffer, weight: FloatBuffer) -> Rows:
        targets = target.tolist()
        weights = weight.tolist()
        offsets = indptr.tolist()
        return tuple(
            tuple(zip(targets[offsets[u] : offsets[u + 1]], weights[offsets[u] : offsets[u + 1]]))
            for u in range(self._n)
        )

    # ------------------------------------------------------------------
    # Shared-memory attachment (worker side)
    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Byte size of the flat buffers (== shared segment payload)."""
        return shared_size(self._n, self._m)

    @property
    def is_attached(self) -> bool:
        return self._shm is not None

    @classmethod
    def attach(cls, handle: CSRHandle) -> "CSRGraph":
        """Map a parent-published snapshot zero-copy from shared memory."""
        from multiprocessing import resource_tracker, shared_memory

        shm = shared_memory.SharedMemory(name=handle.name)
        # SharedMemory(name=...) registers the segment with this process's
        # resource tracker, which would unlink it when the *worker* exits.
        # Ownership stays with the parent, so untrack the attachment.
        try:
            resource_tracker.unregister(shm._name, "shared_memory")  # noqa: SLF001
        except Exception:  # pragma: no cover - tracker impl detail
            pass
        n, m = handle.num_vertices, handle.num_edges
        root = memoryview(shm.buf)
        views: List[memoryview] = [root]
        buffers: Dict[str, Any] = {}
        offset = 0
        for attr, code, count in _layout(n, m):
            nbytes = count * _ITEMSIZE[code]
            view = root[offset : offset + nbytes].cast(code)
            views.append(view)
            buffers[attr] = view
            offset += nbytes
        csr = cls(
            num_vertices=n,
            num_edges=m,
            heuristic_scale=handle.heuristic_scale,
            version=handle.version,
            **buffers,
        )
        csr._shm = shm
        csr._views = views
        from .. import obs

        obs.record_shm_attach(shm.size)
        return csr

    def release(self) -> None:
        """Drop all buffer views and close the shm attachment (idempotent).

        A no-op on local (non-attached) snapshots.  After release every
        buffer of an attached snapshot is an empty array, so accidental use
        raises ``IndexError`` instead of touching unmapped memory.
        """
        shm, self._shm = self._shm, None
        views, self._views = self._views, []
        # numpy views hold buffer exports over the memoryviews below; they
        # must be dropped first or ``view.release()`` raises BufferError.
        self._npview = None
        self._landmarks = None
        if shm is not None:
            self._frows = None
            self._rrows = None
            self._coords = None
            self._scratch = None
            for attr, code, _ in _layout(self._n, self._m):
                setattr(self, attr, array(code))
        for view in views:
            view.release()
        if shm is not None:
            shm.close()

    # ------------------------------------------------------------------
    # Pickle support: drop per-process caches, forbid attached instances
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        if self._shm is not None:
            raise GraphError(
                "cannot pickle an shm-attached CSRGraph; ship the CSRHandle instead"
            )
        state: Dict[str, Any] = {
            "num_vertices": self._n,
            "num_edges": self._m,
            "heuristic_scale": self.heuristic_scale,
            "version": self.version,
        }
        for attr, code, _ in _layout(self._n, self._m):
            value = getattr(self, attr)
            state[attr] = value if isinstance(value, array) else array(code, value)
        return state

    def __reduce__(self) -> Tuple[Any, ...]:
        return (_rebuild_csr, (self.__getstate__(),))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "shm" if self._shm is not None else "local"
        return (
            f"CSRGraph(|V|={self._n}, |E|={self._m}, version={self.version}, "
            f"{kind})"
        )


def _rebuild_csr(state: Dict[str, Any]) -> CSRGraph:
    return CSRGraph(**state)


class SharedCSR:
    """Parent-side owner of one shared-memory CSR segment.

    The owner is the only party that ``unlink``s; :meth:`close` is
    idempotent and wired through the engine's shutdown/degradation ladder
    so the segment is reclaimed on clean shutdown, worker crash and
    circuit-breaker serial fallback alike.
    """

    def __init__(self, shm: "SharedMemory", handle: CSRHandle) -> None:
        self._shm: Optional["SharedMemory"] = shm
        self.handle = handle
        self.nbytes = shm.size

    @property
    def is_open(self) -> bool:
        return self._shm is not None

    def close(self) -> None:
        shm, self._shm = self._shm, None
        if shm is None:
            return
        from multiprocessing import resource_tracker

        try:
            shm.close()
        finally:
            # A same-process attach (tests, diagnostics) unregisters the
            # name from this process's resource tracker; re-register it so
            # unlink's own unregister always has something to remove.
            try:
                resource_tracker.register(shm._name, "shared_memory")  # noqa: SLF001
            except Exception:  # pragma: no cover - tracker impl detail
                pass
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already reclaimed
                try:
                    resource_tracker.unregister(shm._name, "shared_memory")  # noqa: SLF001
                except Exception:
                    pass

    def __enter__(self) -> "SharedCSR":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC backstop
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.is_open else "closed"
        return f"SharedCSR({self.handle.name!r}, {self.nbytes} bytes, {state})"


def share_csr(csr: CSRGraph) -> SharedCSR:
    """Publish ``csr``'s flat buffers under one shared-memory segment."""
    from multiprocessing import shared_memory

    n, m = csr.num_vertices, csr.num_edges
    size = shared_size(n, m)
    shm = shared_memory.SharedMemory(create=True, size=max(size, 1))
    buf = shm.buf
    offset = 0
    for attr, code, count in _layout(n, m):
        nbytes = count * _ITEMSIZE[code]
        raw = getattr(csr, attr).tobytes()
        if len(raw) != nbytes:  # pragma: no cover - structural invariant
            raise GraphError(f"buffer {attr!r} has {len(raw)} bytes, expected {nbytes}")
        buf[offset : offset + nbytes] = raw
        offset += nbytes
    handle = CSRHandle(
        name=shm.name,
        num_vertices=n,
        num_edges=m,
        heuristic_scale=csr.heuristic_scale,
        version=csr.version,
    )
    from .. import obs

    obs.record_shm_share(size)
    return SharedCSR(shm, handle)


def freeze_network(net: "RoadNetwork") -> Tuple[CSRGraph, float]:
    """Build a snapshot of ``net`` and report the build time (seconds)."""
    start = perf_counter()
    csr = CSRGraph.from_network(net)
    return csr, perf_counter() - start
