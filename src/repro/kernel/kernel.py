"""The per-host kernel: ties address spaces, pinning, interrupts and
Ethernet together, and provides the user-process abstraction.

A :class:`UserProcess` is one application process: an address space, a
malloc arena, and a home core.  ``syscall`` models entering the kernel from
that process (entry cost + driver body executed at kernel priority on the
same core); ``compute`` models application CPU work.
"""

from __future__ import annotations

from collections.abc import Callable, Generator

from repro.hw.cpu import PRIO_USER, CpuCore
from repro.hw.host import Host
from repro.kernel.address_space import AddressSpace
from repro.kernel.allocator import Malloc
from repro.kernel.context import AcquiringContext, ExecContext
from repro.kernel.ethernet import EthernetLayer
from repro.kernel.interrupts import SoftirqEngine
from repro.kernel.pinning import PinService

__all__ = ["Kernel", "UserProcess"]


class Kernel:
    """One host's operating system."""

    def __init__(self, host: Host, bh_core_index: int = 0,
                 pin_fraction: float | None = None):
        if host.kernel is not None:
            raise RuntimeError(f"{host.name} already has a kernel")
        self.env = host.env
        self.host = host
        host.kernel = self
        self.metrics = host.metrics
        self.pin = PinService(
            *(() if pin_fraction is None else (pin_fraction,)),
            metrics=self.metrics, host=host.name,
        )
        self.ethernet = EthernetLayer(host.nic)
        self.bh_core = host.cores[bh_core_index]
        self.softirq = SoftirqEngine(
            self.env, self.bh_core, host.nic, self.ethernet.dispatch_rx,
            metrics=self.metrics, fuse_hint=self.ethernet.fuse_hint,
        )
        host.nic.set_rx_callback(self.softirq.raise_irq)
        self._processes: list[UserProcess] = []

    def new_process(self, name: str, core_index: int) -> "UserProcess":
        proc = UserProcess(self, name, self.host.cores[core_index])
        self._processes.append(proc)
        return proc

    @property
    def processes(self) -> list["UserProcess"]:
        return list(self._processes)


class UserProcess:
    """An application process: address space + allocator + home core."""

    def __init__(self, kernel: Kernel, name: str, core: CpuCore):
        self.kernel = kernel
        self.env = kernel.env
        self.name = f"{kernel.host.name}/{name}"
        self.core = core
        self.aspace = AddressSpace(kernel.host.memory, self.name)
        self.heap = Malloc(self.aspace)

    def fork(self, name: str) -> "UserProcess":
        """fork(2): a child process with a COW copy of this address space.

        The child shares the home core (it is a workload driver, not a
        scheduler entity) and gets a cloned allocator over the forked
        address space.  The caller owns the child's lifecycle — it is not
        added to the kernel's process list, and must be torn down with
        ``child.aspace.destroy()``.
        """
        child = UserProcess.__new__(UserProcess)
        child.kernel = self.kernel
        child.env = self.env
        child.name = f"{self.kernel.host.name}/{name}"
        child.core = self.core
        child.aspace = self.aspace.fork(child.name)
        child.heap = self.heap.clone_for(child.aspace)
        return child

    # -- memory ---------------------------------------------------------------
    def malloc(self, size: int) -> int:
        return self.heap.malloc(size)

    def free(self, addr: int, *, unmap: bool = True) -> None:
        self.heap.free(addr, unmap=unmap)

    def write(self, addr: int, data: bytes | bytearray | memoryview) -> None:
        """Application store to memory (contents only; time via compute()).

        ``data`` may be any contiguous buffer (a numpy array, say); its
        bytes are written, not its items."""
        self.aspace.write(addr, data)

    def read(self, addr: int, length: int) -> bytes:
        return self.aspace.read(addr, length)

    # -- execution --------------------------------------------------------------
    def compute(self, cost_ns: int) -> Generator:
        """Process: burn application CPU time on the home core."""
        yield from self.core.execute_sliced(cost_ns, PRIO_USER)

    def syscall(self, body: Callable[[ExecContext], Generator]) -> Generator:
        """Process: enter the kernel and run ``body`` at kernel priority.

        The body receives an :class:`ExecContext` bound to the calling core;
        its return value is returned to the caller.
        """
        ctx = AcquiringContext(self.env, self.core)
        yield from ctx.charge(self.core.spec.syscall_ns)
        result = yield from body(ctx)
        return result

    def user_context(self) -> AcquiringContext:
        """Context for user-level library work (polling, cache lookups)."""
        return AcquiringContext(self.env, self.core, PRIO_USER)
