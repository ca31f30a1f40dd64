"""repro.interp — execution engine for the repro IR.

Executes IR with real numerics (scalar or vectorized over parallel-loop
chunks), accounts abstract instruction costs, and yields cooperative
events for MPI and thread barriers so the simulated runtimes in
:mod:`repro.parallel` can coordinate ranks and threads.
"""

from .compile import CompiledBackend, compile_function
from .diskcache import (CompileCache, config_fingerprint, open_cache,
                        resolve_cache_dir)
from .events import BarrierEvent, Event, MPIEvent
from .executor import Executor, run_function
from .fusion import FusionStats
from .interpreter import ExecConfig, Interpreter, TaskScheduler, chunk_bounds
from .lowering import Lowerer, LoweringError, lower_function
from .native import (
    NativeBackend,
    NativeBuildError,
    NativeStats,
    Toolchain,
    probe_toolchain,
)
from .memory import (
    Buffer,
    DynCache,
    InterpreterError,
    Memory,
    PtrVal,
    TaskVal,
    TokenVal,
)

__all__ = [
    "BarrierEvent", "Event", "MPIEvent",
    "Executor", "run_function",
    "ExecConfig", "Interpreter", "TaskScheduler", "chunk_bounds",
    "CompiledBackend", "compile_function",
    "CompileCache", "config_fingerprint", "open_cache",
    "resolve_cache_dir",
    "FusionStats",
    "Lowerer", "LoweringError", "lower_function",
    "NativeBackend", "NativeBuildError", "NativeStats", "Toolchain",
    "probe_toolchain",
    "Buffer", "DynCache", "InterpreterError", "Memory", "PtrVal",
    "TaskVal", "TokenVal",
]
