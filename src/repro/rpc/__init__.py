"""Network query/ingest RPC tier.

The network front door of a KOKO deployment: :class:`RpcServer` serves
queries and ingest over :mod:`repro.net`'s framed+HMAC wire for
any node kind (primary service, read-only replica, or router), with
per-client token-bucket admission (:class:`AdmissionPolicy`),
server-side query deadlines, bulk ingest and pipelined durability acks.
:class:`RpcClient` (blocking) and :class:`AsyncRpcClient` (asyncio) are
the matching clients.  See ``docs/OPERATIONS.md`` for the operator
knobs and ``docs/ARCHITECTURE.md`` for the dataflow.
"""

from .admission import AdmissionController, AdmissionPolicy, TokenBucket
from .client import AsyncRpcClient, RpcClient
from .server import RpcServer
from .wire import (
    FrameError,
    FrameTooLarge,
    RpcFault,
    RpcRequest,
    RpcResponse,
)

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "AsyncRpcClient",
    "FrameError",
    "FrameTooLarge",
    "RpcClient",
    "RpcFault",
    "RpcRequest",
    "RpcResponse",
    "RpcServer",
    "TokenBucket",
]
